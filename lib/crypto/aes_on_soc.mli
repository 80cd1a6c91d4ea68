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

(** Instrumented CBC transform: all cipher state through the on-SoC
    context, in IRQ-bracketed batches. *)
val encrypt : t -> iv:Bytes.t -> Bytes.t -> Bytes.t

val decrypt : t -> iv:Bytes.t -> Bytes.t -> Bytes.t

(** Bulk path for the pager: native transform (bit-identical) with the
    modeled on-SoC cost charged inside the IRQ bracket.

    On every [bulk*] entry point, the host compute of a whole 4 KiB
    page may be reused: a transform under the same key schedule and
    IV, of an input equal in full to one this domain has just
    transformed (in either direction), copies the remembered output
    instead of running the kernel.  The output bytes are the same
    either way, and the charge never is reused: the modeled cost, the
    IRQ bracket and the trace span are paid on every call.  Other
    lengths (512 B sectors) and the instrumented [encrypt]/[decrypt]
    always compute. *)
val bulk : t -> dir:[ `Encrypt | `Decrypt ] -> iv:Bytes.t -> Bytes.t -> Bytes.t

(** Scatter-gather bulk path: transform the [len]-byte view of [src]
    at [src_off] into [dst] at [dst_off] through the fused
    register-chained CBC kernel ([Aes.cbc_*_into]), with the modeled
    on-SoC cost charged inside the IRQ bracket — no allocation.
    [src]/[dst] may be the same buffer, at any offsets; any layout
    but in place at one offset copies the input into [dst] first.
    [bulk] is implemented on top; identical cost and trace.  A whole
    page may reuse host compute, never the charge (see [bulk]). *)
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

(** [bulk_into] with the 16-byte IV at [iv_off] inside [iv], so a
    batch can reuse one IV buffer; same checks, kernel, charge and
    trace span, and the same reuse of a whole page's host compute. *)
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

(** Host-side transform only — the same checked kernel as
    [bulk_fused_into] with no [Perf.charge] and no IRQ bracket, for
    engine models ([Offload_engine]) that account simulated
    time/energy themselves while ciphertext must stay bit-identical
    to the CPU path.  A whole page may reuse host compute, as on the
    charged paths. *)
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

(** Re-key: rewrites the on-SoC context and the bulk-path key schedule together. *)
val set_key : t -> Bytes.t -> unit

(** Register with a [Crypto_api] above the generic cipher (priority
    500). *)
val register : t -> Crypto_api.t -> unit

(** Erase the on-SoC context: the erasure primitive for device
    shutdown and re-key.  Nothing calls it yet (see [lint.allow]). *)
val wipe : t -> unit
