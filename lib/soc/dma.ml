(** DMA controller.

    A DMA engine moves data without CPU cooperation and — crucially —
    {e bypasses the L2 cache}: transfers read and write DRAM (or iRAM)
    directly.  Cache coherence is software-managed on these SoCs
    (§4.4): the OS must clean lines before an outgoing transfer and
    invalidate before an incoming one.

    A DMA {e attack} (§3.1) programs this controller over an exposed
    interface to dump memory of a PIN-locked device.  The only
    hardware defence is TrustZone's deny list. *)

type error = Denied | Bad_address | Faulted

type t = {
  dram : Dram.t;
  iram : Sram.t;
  tz : Trustzone.t;
  clock : Clock.t;
  energy : Energy.t;
  mutable on_read : (addr:int -> len:int -> taint:Taint.level -> unit) option;
}

let create ~dram ~iram ~tz ~clock ~energy =
  { dram; iram; tz; clock; energy; on_read = None }

(** [set_read_hook t f] — [f] fires on every {e successful}
    device-initiated read, with the taint join of the bytes that left
    through the peripheral.  Analysis passes use it to catch secrets
    escaping via DMA windows. *)
let set_read_hook t f = t.on_read <- Some f

let clear_read_hook t = t.on_read <- None

let notify_read t ~addr ~len ~taint =
  match t.on_read with Some f -> f ~addr ~len ~taint | None -> ()

let charge t len =
  Clock.advance t.clock (float_of_int len *. Calib.dma_byte_ns);
  Energy.charge t.energy ~category:"dma" (float_of_int len *. Calib.onsoc_byte_j)

let trace t ?args name =
  Sentry_obs.Trace.emit ~ts:(Clock.now t.clock) ~cat:Sentry_obs.Event.Dma ~subsystem:"soc.dma"
    ?args name

let trace_xfer t name ~addr ~len ~target =
  if Sentry_obs.Trace.on () then
    trace t name
      ~args:
        [
          ("addr", Sentry_obs.Event.Int addr);
          ("bytes", Sentry_obs.Event.Int len);
          ("target", Sentry_obs.Event.Str (match target with `Dram -> "dram" | `Iram -> "iram"));
        ]

let trace_denied t ~addr ~len =
  if Sentry_obs.Trace.on () then
    trace t "denied"
      ~args:[ ("addr", Sentry_obs.Event.Int addr); ("bytes", Sentry_obs.Event.Int len) ]

(* Injected transfer fault: the engine aborts with a bus error before
   any byte moves (no charge, no data). *)
let faulted t point ~addr ~len =
  match Sentry_faults.Injector.poll point with
  | None -> false
  | Some _ ->
      if Sentry_obs.Trace.on () then
        trace t "transfer-fault"
          ~args:[ ("addr", Sentry_obs.Event.Int addr); ("bytes", Sentry_obs.Event.Int len) ];
      true

let target t addr len =
  if Dram.contains t.dram addr && Dram.contains t.dram (addr + len - 1) then Some `Dram
  else if Sram.contains t.iram addr && Sram.contains t.iram (addr + len - 1) then Some `Iram
  else None

(** [read t ~addr ~len] — a device-initiated read of physical memory.
    Sees DRAM as it is, stale or not (never the cache's view), and
    iRAM unless TrustZone denies the window. *)
let read t ~addr ~len =
  if not (Trustzone.dma_allowed t.tz ~addr ~len) then begin
    trace_denied t ~addr ~len;
    Error Denied
  end
  else if faulted t Sentry_faults.Injector.Points.dma_read ~addr ~len then Error Faulted
  else
    match target t addr len with
    | None -> Error Bad_address
    | Some `Dram ->
        charge t len;
        trace_xfer t "device-read" ~addr ~len ~target:`Dram;
        notify_read t ~addr ~len ~taint:(Dram.taint_range t.dram addr len);
        Ok (Dram.read t.dram ~initiator:`Dma addr len)
    | Some `Iram ->
        charge t len;
        trace_xfer t "device-read" ~addr ~len ~target:`Iram;
        notify_read t ~addr ~len ~taint:(Sram.taint_range t.iram addr len);
        (* iRAM DMA stays on-SoC: no bus transaction, but the data
           still leaves through the peripheral. *)
        Ok (Bytes.sub (Sram.raw t.iram) (addr - (Sram.region t.iram).Memmap.base) len)

(** [write t ~addr b] — a device-initiated write (e.g. an incoming
    network buffer, or a code-injection attempt). *)
let write t ~addr b =
  let len = Bytes.length b in
  if not (Trustzone.dma_allowed t.tz ~addr ~len) then begin
    trace_denied t ~addr ~len;
    Error Denied
  end
  else if faulted t Sentry_faults.Injector.Points.dma_write ~addr ~len then Error Faulted
  else
    match target t addr len with
    | None -> Error Bad_address
    | Some `Dram ->
        charge t len;
        trace_xfer t "device-write" ~addr ~len ~target:`Dram;
        (* Device-sourced data is public as far as Sentry knows. *)
        Ok (Dram.write t.dram ~initiator:`Dma addr b)
    | Some `Iram ->
        charge t len;
        trace_xfer t "device-write" ~addr ~len ~target:`Iram;
        Bytes.blit b 0 (Sram.raw t.iram) (addr - (Sram.region t.iram).Memmap.base) len;
        Ok (Sram.set_taint t.iram addr len Taint.Public)
