(** The external memory bus between the SoC and DRAM.

    Everything that leaves the SoC package crosses this bus: L2 miss
    fills, write-backs, uncached CPU accesses and DMA transfers.  A bus
    monitoring attack (§3.1) attaches a probe here and sees every
    transaction — address, direction and data — which is exactly what a
    FuturePlus-style DDR analyzer captures.

    Accesses served from iRAM or from the L2 cache never appear here;
    that asymmetry is the core of Sentry's security argument. *)

type op = Read | Write

type transaction = {
  op : op;
  addr : int;
  data : bytes; (* snapshot of the bytes that crossed the bus *)
  taint : Taint.level; (* provenance join over [data] (Public when tracking is off) *)
  time_ns : float;
  initiator : [ `Cpu | `L2 | `Dma ];
}

type counters = {
  mutable transactions : int; (* total count, always maintained *)
  mutable bytes_read : int;
  mutable bytes_written : int;
}

type t = {
  clock : Clock.t;
  meter : Energy.meter; (* pre-resolved "bus" energy cell *)
  mutable monitors : (transaction -> unit) list;
  counts : counters;
}

let create ~clock ~energy =
  {
    clock;
    meter = Energy.meter energy ~category:"bus";
    monitors = [];
    counts = { transactions = 0; bytes_read = 0; bytes_written = 0 };
  }

let counters t = t.counts
let meter t = t.meter

(** [attach_monitor t f] registers a probe called on every transaction.
    Returns a detach function. *)
let attach_monitor t f =
  t.monitors <- f :: t.monitors;
  fun () -> t.monitors <- List.filter (fun g -> g != f) t.monitors

let monitored t = t.monitors <> []

(** [record t ~initiator ?taint op addr data] logs one transaction and
    charges bus energy.  Timing is charged by the initiating component
    (the L2 controller, the CPU or the DMA engine), not here, to avoid
    double counting.

    The [data] field of the delivered transaction is a {e defensive
    copy} taken at record time: callers are free to reuse or mutate
    their buffer afterwards without retroactively altering any
    monitor's view of what crossed the bus. *)
let initiator_name = function `Cpu -> "cpu" | `L2 -> "l2" | `Dma -> "dma"

(** [record_view t ~initiator ?taint op addr buf ~off ~len] — like
    [record], but the transaction's bytes are described as a view into
    [buf] rather than a standalone buffer, so the unmonitored,
    untraced fast path allocates nothing.  When a monitor {e is}
    attached, the delivered [data] is still a defensive snapshot taken
    here, preserving the aliasing contract of [record]. *)
let record_view t ~initiator ~taint op addr buf ~off ~len =
  let c = t.counts in
  c.transactions <- c.transactions + 1;
  (match op with
  | Read -> c.bytes_read <- c.bytes_read + len
  | Write -> c.bytes_written <- c.bytes_written + len);
  Energy.meter_charge_bytes t.meter ~per_byte_j:Calib.dram_byte_j len;
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~ts:(Clock.now t.clock) ~cat:Sentry_obs.Event.Bus ~subsystem:"soc.bus"
      (match op with Read -> "read" | Write -> "write")
      ~args:
        [
          ("addr", Sentry_obs.Event.Int addr);
          ("bytes", Sentry_obs.Event.Int len);
          ("initiator", Sentry_obs.Event.Str (initiator_name initiator));
          ("taint", Sentry_obs.Event.Str (Taint.to_string taint));
        ];
  if t.monitors <> [] then begin
    let txn =
      { op; addr; data = Bytes.sub buf off len; taint; time_ns = Clock.now t.clock; initiator }
    in
    List.iter (fun f -> f txn) t.monitors
  end

let record t ~initiator ?(taint = Taint.Public) op addr data =
  record_view t ~initiator ~taint op addr data ~off:0 ~len:(Bytes.length data)

let stats t = (t.counts.transactions, t.counts.bytes_read, t.counts.bytes_written)

let pp_op ppf = function Read -> Fmt.string ppf "R" | Write -> Fmt.string ppf "W"

let pp_transaction ppf txn =
  Fmt.pf ppf "%a 0x%08x %d bytes @%a" pp_op txn.op txn.addr (Bytes.length txn.data)
    Sentry_util.Units.pp_time txn.time_ns
