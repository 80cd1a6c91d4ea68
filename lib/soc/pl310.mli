(** PL310-style shared L2 cache controller with lockdown-by-way
    (§4.2): write-back, write-allocate, 8 ways of 128 KB by default.
    Locked ways keep serving hits and absorbing writes but never
    evict — their data never reaches DRAM — and the flush mask makes
    kernel cache maintenance skip them (the Sentry patch, §4.5).
    [flush_all_stock] reproduces the dangerous stock behaviour.

    Storage is three flat arrays, not per-line records: every line's
    bytes in one [ways * way_size] store (line [(way, set)] at
    [(way * sets + set) * line_size]), one tag word per line
    ([(tag lsl 2) lor (dirty lsl 1) lor valid]) and, once
    [enable_taint] runs, one shadow in the store's layout.  [create]
    allocates the arrays straight in the major heap, and the access
    path allocates nothing. *)

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

(** {2 CPU access path}

    One line-granule walk serves every cached access, from a byte to a
    page run.  With tracing on, a write-back hook set or a bus monitor
    attached, its misses emit trace events, fire the hook and deliver
    bus transactions; otherwise they only account them.  Simulated
    state evolves the same either way. *)

(** Cached read straight into [buf] at [off]: hit, fill (evicting
    per lockdown), or — when every way is locked — an uncached DRAM
    bypass.  No allocation. *)
val read_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** Cached write (write-allocate, write-back) of the [len]-byte view
    of [buf] at [off]; [taint] labels the written bytes when taint
    tracking is on. *)
val write_from : t -> ?taint:Taint.level -> int -> Bytes.t -> off:int -> len:int -> unit

(** {2 Taint tracking} *)

(** Allocate the line shadow (and DRAM's, transitively); idempotent. *)
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

(** Visit every valid resident line: [f ~way ~addr store ~off] sees
    the line as the [line_size]-byte window of the live store at [off]
    (a view, not a copy: read it in place, do not keep or mutate it).
    Used by analysis passes searching the cache for key material. *)
val iter_resident : t -> (way:int -> addr:int -> Bytes.t -> off:int -> unit) -> unit

(** {2 Maintenance}

    Both flushes visit, in each way they clean, only the blocks of sets
    that may hold a valid line (32 blocks per way), so their host cost
    scales with occupied blocks, not with the cache's slots; the
    simulated charges are those of a full scan.  Unobserved, they
    allocate nothing. *)

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
