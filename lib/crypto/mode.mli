(** CBC chaining, generic over a 16-byte block transform: the one
    mode Sentry uses (the Android/Linux default, §6.1). *)

type block_fn = Bytes.t -> int -> Bytes.t -> int -> unit
(** [f src src_off dst dst_off] transforms one 16-byte block. *)

type cipher = { encrypt : block_fn; decrypt : block_fn }

val of_key : Aes.key -> cipher

val block : int

(** {2 Scatter-gather ([_into]) transforms}

    Zero-allocation bulk path: transform [len] bytes from [src] at
    [src_off] into [dst] at [dst_off].  [src] and [dst] may be the
    same buffer at the same offset (in-place).  The allocating entry
    points below are wrappers over these; both produce bit-identical
    bytes. *)

type scratch

(** Reusable CBC chaining buffers; one per long-lived cipher owner
    avoids two allocations per call.  Omitting [?scratch] allocates a
    fresh one. *)
val make_scratch : unit -> scratch

val cbc_encrypt_into :
  ?scratch:scratch ->
  cipher ->
  iv:Bytes.t ->
  src:Bytes.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  unit

val cbc_decrypt_into :
  ?scratch:scratch ->
  cipher ->
  iv:Bytes.t ->
  src:Bytes.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  unit

(** {2 Allocating transforms} *)

(** @raise Invalid_argument unless data is block-aligned and the IV is
    16 bytes (same for [cbc_decrypt]). *)
val cbc_encrypt : cipher -> iv:Bytes.t -> Bytes.t -> Bytes.t

val cbc_decrypt : cipher -> iv:Bytes.t -> Bytes.t -> Bytes.t
