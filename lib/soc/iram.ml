(** On-SoC internal SRAM (iRAM).

    256 KB on a Tegra 3-class part.  CPU accesses to iRAM never cross
    the external bus, so a bus monitor cannot observe them.  The
    platform firmware zeroes iRAM on every cold (power-on) boot, which
    is what makes it cold-boot safe (Table 2); a warm OS reboot leaves
    it intact.  With respect to DMA, iRAM behaves like ordinary memory:
    it is only protected if TrustZone is configured to deny DMA windows
    over it (§4.4). *)

open Sentry_util

type t = {
  region : Memmap.region;
  data : Bytes.t;
  clock : Clock.t;
  energy : Energy.t;
  (* Firmware scribbles its own runtime state over the reserved low
     64 KB; overwriting that region crashes the platform (§4.5). *)
  mutable firmware_ok : bool;
  mutable shadow : Bytes.t option; (* taint labels, one per data byte *)
}

let create ~clock ~energy ~size =
  {
    region = Memmap.region ~base:Memmap.iram_base ~size;
    data = Bytes.make size '\000';
    clock;
    energy;
    firmware_ok = true;
    shadow = None;
  }

let enable_taint t =
  if t.shadow = None then t.shadow <- Some (Taint.create_shadow (Bytes.length t.data))

let taint_range t addr len =
  match t.shadow with
  | None -> Taint.Public
  | Some s -> Taint.max_range s (Memmap.offset t.region addr) len

let set_taint t addr len level =
  match t.shadow with
  | None -> ()
  | Some s -> Taint.fill s (Memmap.offset t.region addr) len level

let shadow t = t.shadow

let region t = t.region
let size t = t.region.Memmap.size
let contains t addr = Memmap.contains t.region addr

let check t addr len =
  if not (contains t addr && (len = 0 || contains t (addr + len - 1))) then
    invalid_arg (Printf.sprintf "Iram: access out of range 0x%x+%d" addr len)

let charge t len =
  let lines = (len + 31) / 32 in
  Clock.advance t.clock (float_of_int lines *. Calib.iram_line_ns);
  Energy.charge t.energy ~category:"iram" (float_of_int len *. Calib.onsoc_byte_j)

let trace t name ~addr ~len =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~ts:(Clock.now t.clock) ~cat:Sentry_obs.Event.Mem ~subsystem:"soc.iram"
      name
      ~args:[ ("addr", Sentry_obs.Event.Int addr); ("bytes", Sentry_obs.Event.Int len) ]

(** Scatter-gather read straight into [buf] at [off]: identical
    charge/trace to [read] (implemented on top), no allocation. *)
let read_into t addr buf ~off ~len =
  check t addr len;
  charge t len;
  trace t "read" ~addr ~len;
  Bytes.blit t.data (Memmap.offset t.region addr) buf off len

let read t addr len =
  let b = Bytes.create len in
  read_into t addr b ~off:0 ~len;
  b

(** Scatter-gather write of the [len]-byte view of [buf] at [off];
    [write] is implemented on top. *)
let write_from t ?(level = Taint.Public) addr buf ~off ~len =
  check t addr len;
  charge t len;
  trace t "write" ~addr ~len;
  Bytes.blit buf off t.data (Memmap.offset t.region addr) len;
  set_taint t addr len level;
  (* Clobbering the firmware scratch area takes the platform down. *)
  if addr < t.region.Memmap.base + Memmap.iram_firmware_reserved then t.firmware_ok <- false

let write t ?level addr b = write_from t ?level addr b ~off:0 ~len:(Bytes.length b)

let firmware_ok t = t.firmware_ok

(** Attack-side direct view (what a successful DMA window would read). *)
let raw t = t.data

let snapshot t = Bytes.copy t.data

(** Firmware behaviour at power-on reset: zero everything.  SRAM has
    remanence too (and decays more slowly than DRAM, [Cakir et al.]),
    but the firmware zeroing runs before any attacker code, so the
    post-boot observable content is all-zero — exactly the paper's
    Table 2 measurement. *)
let firmware_clear t =
  trace t "firmware-clear" ~addr:t.region.Memmap.base ~len:(Bytes.length t.data);
  Bytes_util.zero t.data;
  (match t.shadow with
  | Some s -> Taint.fill s 0 (Bytes.length s) Taint.Public
  | None -> ());
  t.firmware_ok <- true
