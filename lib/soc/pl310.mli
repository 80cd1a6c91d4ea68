(** PL310-style shared L2 cache controller with lockdown-by-way
    (§4.2): write-back, write-allocate, 8 ways of 128 KB by default.
    Locked ways keep serving hits and absorbing writes but never
    evict — their data never reaches DRAM — and the flush mask makes
    kernel cache maintenance skip them (the Sentry patch, §4.5).
    [flush_all_stock] reproduces the dangerous stock behaviour. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable bypasses : int;  (** accesses with no allocatable way *)
}

type t

val create :
  ?ways:int ->
  ?way_size:int ->
  ?line_size:int ->
  dram:Dram.t ->
  clock:Clock.t ->
  energy:Energy.t ->
  unit ->
  t

val ways : t -> int
val way_size : t -> int
val line_size : t -> int
val size : t -> int
val stats : t -> stats

val set_of_addr : t -> int -> int
val tag_of_addr : t -> int -> int

(** {2 Lockdown and flush-mask registers} *)

val lockdown : t -> int

(** A set bit means the way receives no new allocations. *)
val set_lockdown : t -> int -> unit

val flush_mask : t -> int

(** Ways that maintenance operations must skip. *)
val set_flush_mask : t -> int -> unit

(** {2 Lookup} *)

(** The way currently holding [addr]'s line, if resident. *)
val lookup : t -> int -> int option

val resident : t -> int -> bool
val way_of : t -> int -> int option

(** {2 CPU access path} *)

(** Cached read straight into [buf] at [off]: hit, fill (evicting
    per lockdown), or — when every way is locked — an uncached DRAM
    bypass.  No allocation. *)
val read_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** Cached write (write-allocate, write-back) of the [len]-byte view
    of [buf] at [off]; [taint] labels the written bytes when taint
    tracking is on. *)
val write_from : t -> ?taint:Taint.level -> int -> Bytes.t -> off:int -> len:int -> unit

(** {2 Batched run fast path} *)

(** [read_run_into t addr buf ~off ~len] — the batched lock/unlock
    pipeline's page-run read.  Bit-identical simulated state evolution
    to [read_into] (same per-line stats, clock advances, energy
    charges, bus transactions, victim choices; differentially tested)
    with the per-line host overhead hoisted out of the loop.  Falls
    back to [read_into] whenever tracing is on, a bus monitor is
    attached or a write-back hook is installed. *)
val read_run_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** Page-run write twin of [read_run_into]. *)
val write_run_from : t -> ?taint:Taint.level -> int -> Bytes.t -> off:int -> len:int -> unit

(** {2 Taint tracking} *)

(** Lazily allocate per-line shadows (and DRAM's, transitively). *)
val enable_taint : t -> unit

val taint_enabled : t -> bool

(** Taint join over a range as the CPU sees it: resident lines'
    shadows where cached, DRAM's shadow elsewhere. [Public] when
    tracking is off. *)
val taint_range : t -> int -> int -> Taint.level

(** [set_writeback_hook t f] — [f] fires on every dirty-line
    writeback to DRAM; [locked] is true when the line's way is under
    lockdown at writeback time (the eviction Sentry's kernel patch
    must never allow, §4.5). *)
val set_writeback_hook : t -> (way:int -> addr:int -> locked:bool -> unit) -> unit

val clear_writeback_hook : t -> unit

(** Visit every valid resident line ([f ~way ~addr data]); used by
    analysis passes searching the cache for key material. *)
val iter_resident : t -> (way:int -> addr:int -> Bytes.t -> unit) -> unit

(** {2 Maintenance} *)

(** Sentry-patched flush: clean+invalidate every way not excluded by
    the flush mask; lockdown preserved. *)
val flush_masked : t -> unit

(** Stock full flush: cleans and drops {e locked} ways too and resets
    the lockdown — the leak the paper discovered (§4.2). *)
val flush_all_stock : t -> unit

(** Per-line clean+invalidate for DMA coherence; honours the flush
    mask. *)
val clean_invalidate_range : t -> int -> int -> unit

(** Invalidate without cleaning (before incoming DMA); locked/masked
    ways are skipped. *)
val invalidate_range : t -> int -> int -> unit

(** Power-on reset: invalidate and zero everything, clear both
    registers. *)
val reset : t -> unit

(** Raw bytes of a resident line (test/attack tooling: probing the
    SRAM arrays directly, outside the paper's threat model). *)
val peek_line : t -> int -> Bytes.t option

val hit_rate : t -> float
