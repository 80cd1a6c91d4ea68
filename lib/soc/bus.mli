(** The external memory bus: everything leaving the SoC package
    crosses it (L2 miss fills, write-backs, uncached accesses, DMA) —
    and a bus-monitoring probe (§3.1) sees all of it.  Accesses served
    from iRAM or L2 hits never appear here. *)

type op = Read | Write

type transaction = {
  op : op;
  addr : int;
  data : Bytes.t;
      (** snapshot of the bytes that crossed the bus — a defensive
          copy taken at record time, never aliased to the initiator's
          buffer *)
  taint : Taint.level;
      (** provenance join over [data] ([Public] when taint tracking is
          off) *)
  time_ns : float;
  initiator : [ `Cpu | `Dma | `L2 ];
}

type t

val create : clock:Clock.t -> energy:Energy.t -> t

(** Register a probe; returns a detach function. *)
val attach_monitor : t -> (transaction -> unit) -> unit -> unit

val monitored : t -> bool

(** Log one transaction (called by the L2 controller, the CPU's
    uncached path and the DMA engine).  Monitors receive a snapshot:
    the transaction's [data] is copied here, so mutating the buffer
    after [record] returns cannot alter any monitor's view. *)
val record :
  t -> initiator:[ `Cpu | `Dma | `L2 ] -> ?taint:Taint.level -> op -> int -> Bytes.t -> unit

(** Like [record], but the transaction's bytes are the [len]-byte view
    of [buf] at [off]: the unmonitored, untraced path allocates
    nothing, while an attached monitor still receives a defensive
    snapshot taken at record time.  [taint] is required (pass
    [Taint.Public] when untracked) so the per-line fast path never
    wraps it in an option.  [record] is implemented on top. *)
val record_view :
  t ->
  initiator:[ `Cpu | `Dma | `L2 ] ->
  taint:Taint.level ->
  op ->
  int ->
  Bytes.t ->
  off:int ->
  len:int ->
  unit

(** The accounting-only core of [record_view] — identical transaction
    counters and bus energy, no trace, no monitor delivery.  Only for
    callers that have already checked [monitored t = false] and that
    tracing is off (the batched page pipeline's line loop). *)
val account : t -> op -> int -> unit

(** (transaction count, bytes read, bytes written). *)
val stats : t -> int * int * int

val pp_transaction : Format.formatter -> transaction -> unit
