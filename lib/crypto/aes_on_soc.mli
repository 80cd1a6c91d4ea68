(** AES_On_SoC (§6.2): AES whose entire sensitive state lives on the
    SoC (iRAM or a locked L2 way) and whose register use is protected
    by the IRQ-disable / zero-registers bracket. *)

open Sentry_soc

type storage = In_iram | In_locked_l2 | In_pinned

type t

val storage_name : storage -> string

(** [create machine ~storage ~base ~key] — [base] must lie in iRAM or
    in a locked-way-backed arena page. *)
val create : Machine.t -> storage:storage -> base:int -> key:Bytes.t -> t

(** Where this instance keeps its context. *)
val storage : t -> storage

(** Physical base of the on-SoC context. *)
val base : t -> int

val context_bytes : t -> int

(** Instrumented CBC transform: all cipher state through the on-SoC
    context, in IRQ-bracketed batches. *)
val encrypt : t -> iv:Bytes.t -> Bytes.t -> Bytes.t

val decrypt : t -> iv:Bytes.t -> Bytes.t -> Bytes.t

(** Bulk path for the pager: native transform (bit-identical) with the
    modeled on-SoC cost charged inside the IRQ bracket. *)
val bulk : t -> dir:[ `Encrypt | `Decrypt ] -> iv:Bytes.t -> Bytes.t -> Bytes.t

(** Scatter-gather bulk path: transform the [len]-byte view of [src]
    at [src_off] into [dst] at [dst_off] ([src]/[dst] may alias for
    in-place work) with the cached cipher and reusable scratch — no
    allocation.  [bulk] is implemented on top; identical cost and
    trace. *)
val bulk_into :
  t ->
  dir:[ `Encrypt | `Decrypt ] ->
  iv:Bytes.t ->
  src:Bytes.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  unit

(** Batch-pipeline twin of [bulk_into]: identical IRQ bracket, modeled
    charge and trace span, but the bytes run through the fused
    register-chained CBC page kernel ([Aes.cbc_*_into]) instead of the
    [Mode] wrapper.  [`Decrypt] transforms [dst] in place ([src] is
    ignored); output is bit-identical to [bulk_into].  [iv_off] gives
    the 16-byte IV's offset inside [iv] so callers can reuse one IV
    buffer across a batch. *)
val bulk_fused_into :
  t ->
  dir:[ `Encrypt | `Decrypt ] ->
  iv:Bytes.t ->
  iv_off:int ->
  src:Bytes.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  unit

(** Host-side transform only — same fused kernel as [bulk_fused_into]
    with no [Perf.charge] and no IRQ bracket, for engine models
    ([Offload_engine]) that account simulated time/energy themselves
    while ciphertext must stay bit-identical to the CPU path. *)
val bulk_fused_raw :
  t ->
  dir:[ `Encrypt | `Decrypt ] ->
  iv:Bytes.t ->
  iv_off:int ->
  src:Bytes.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  unit

(** Re-key: rewrites the on-SoC context and the bulk twin together. *)
val set_key : t -> Bytes.t -> unit

(** Register with a [Crypto_api] above the generic cipher and any
    accelerator driver (priority 500). *)
val register : t -> Crypto_api.t -> unit

(** Register the XTS flavour under "xts(aes)" (priority 500). *)
val register_xts : t -> Crypto_api.t -> unit

(** Erase the on-SoC context. *)
val wipe : t -> unit
