(** Off-SoC DRAM with a Table 2-calibrated data-remanence model.  The
    backing store is directly inspectable — cold-boot and DMA attacks
    read this array, not the CPU's cached view.

    First-touch invariant: the store is allocated uninitialised and
    zero-filled one fixed 64 KiB chunk at a time, the first time any
    access covers the chunk.  Every bus access ([read], [write] and
    their views) and [backing] zero the chunks of their range before
    touching a byte; [raw], [snapshot] and [power_cycle] zero the whole
    store first.  Contents, taint and the remanence PRNG stream are
    therefore exactly those of an eagerly zeroed module. *)

open Sentry_util

type t

val create : bus:Bus.t -> clock:Clock.t -> prng:Prng.t -> size:int -> t
val region : t -> Memmap.region
val size : t -> int
val contains : t -> int -> bool

(** Raised by any access while the rails are down ([set_powered t
    false]) — a power fault, distinct from the [Invalid_argument]
    programming errors. *)
exception Powered_off

(** Bus-visible fetch/store (used by the L2 controller, uncached CPU
    accesses and DMA). *)
val read : t -> initiator:[ `Cpu | `Dma | `L2 ] -> int -> int -> Bytes.t

(** Scatter-gather fetch straight into [buf] at [off]: no intermediate
    buffer; bus transaction, taint and energy bit-identical to [read]
    (which is implemented on top). *)
val read_into :
  t -> initiator:[ `Cpu | `Dma | `L2 ] -> int -> Bytes.t -> off:int -> len:int -> unit

(** [write t ~initiator ?level ?taint addr b] — the written range's
    shadow comes from [taint] (per-byte labels, e.g. an evicted cache
    line's) when given, else uniformly from [level] (default
    [Public]). *)
val write :
  t ->
  initiator:[ `Cpu | `Dma | `L2 ] ->
  ?level:Taint.level ->
  ?taint:Bytes.t ->
  int ->
  Bytes.t ->
  unit

(** Scatter-gather store of the [len]-byte view of [buf] at [off];
    [write] is implemented on top. *)
val write_from :
  t ->
  initiator:[ `Cpu | `Dma | `L2 ] ->
  ?level:Taint.level ->
  ?taint:Bytes.t ->
  int ->
  Bytes.t ->
  off:int ->
  len:int ->
  unit

(** [backing t addr len] — the access check ([Powered_off] / range)
    for a physical range, plus first-touch zeroing of the chunks under
    it; returns the whole backing store, indexed by offset from the
    region base.  For paths that check once and then touch the store
    directly (the L2 run loop, [Machine.write_raw], warm reboot): only
    bytes inside ranges passed here may be read or written through the
    result. *)
val backing : t -> int -> int -> Bytes.t

(** Bytes of the store zeroed so far: the host memory this module has
    made resident. *)
val resident_bytes : t -> int

(** The memory bus this DRAM answers on, for fast paths that inline
    their own transaction accounting. *)
val bus : t -> Bus.t

(** Lazily allocate the taint shadow (no-op when already enabled). *)
val enable_taint : t -> unit

val taint_enabled : t -> bool

(** Taint join over a physical range ([Public] when tracking is off). *)
val taint_range : t -> int -> int -> Taint.level

(** Copy the shadow labels behind a range into [dst] at [dst_off]
    (all-[Public] when tracking is off) — the allocation-free twin of
    [shadow_of_range]. *)
val blit_shadow_into : t -> int -> int -> Bytes.t -> int -> unit

(** Uniformly relabel a physical range. *)
val set_taint : t -> int -> int -> Taint.level -> unit

(** The raw shadow store (same layout as [raw]); [None] until taint
    tracking is enabled. *)
val shadow : t -> Bytes.t option

(** Direct backing-store access for attack tooling and test
    assertions only — no bus traffic.  Zeroes every untouched chunk
    first (a memset of the whole module), so it must not be called on
    a hot path; use [backing] for a range. *)
val raw : t -> Bytes.t

(** A copy of the whole image (zeroes every untouched chunk first,
    like [raw]). *)
val snapshot : t -> Bytes.t

(** Model [off_s] seconds without power: each byte survives with the
    calibrated probability; decayed bytes fall to the per-row ground
    state.  Zeroes every untouched chunk first, so the PRNG draws one
    flip per byte of the whole image, touched or not.  The module must already be powered off ([set_powered t
    false]) — cells decay only without self-refresh.
    @raise Invalid_argument on a still-powered module. *)
val power_cycle : t -> off_s:float -> unit

val set_powered : t -> bool -> unit
