(** Fast native AES (the "generic OpenSSL AES" of the paper): the
    bulk-data path used for actual byte transformations.  The
    security-relevant instrumented twin is [Aes_block]; both are
    pinned to FIPS-197 vectors. *)

type key = Aes_key.t

val expand : Bytes.t -> key

(** [encrypt_block k src src_off dst dst_off] transforms one 16-byte
    block; [src] and [dst] may alias. *)
val encrypt_block : key -> Bytes.t -> int -> Bytes.t -> int -> unit

(** Equivalent inverse cipher (FIPS-197 §5.3.5) over the key's
    host-side decryption schedule [Aes_key.inv_words]: four table
    lookups per column per round, as for [encrypt_block]. *)
val decrypt_block : key -> Bytes.t -> int -> Bytes.t -> int -> unit

(** [cbc_encrypt_into k ~iv ~iv_off src src_off dst dst_off nblocks]
    encrypts [nblocks] contiguous 16-byte blocks in CBC mode, chained
    from the 16-byte IV at [iv_off] in [iv], with the chain held in
    scalar registers (no per-block buffer traffic); the AES-128 round
    structure is fully unrolled.  This is the batched lock pipeline's
    page kernel.  [src] and [dst] may alias at equal offsets.  Output
    is bit-identical to chaining [encrypt_block] by hand (and is
    differentially tested against [Mode]).  [iv_off] is required, not
    optional: an optional argument would box its [Some] on every call
    from another module. *)
val cbc_encrypt_into :
  key -> iv:Bytes.t -> iv_off:int -> Bytes.t -> int -> Bytes.t -> int -> int -> unit

(** [cbc_decrypt_into k ~iv ~iv_off buf off nblocks] decrypts
    [nblocks] contiguous blocks of [buf] {e in place} in CBC mode —
    the unlock twin of [cbc_encrypt_into], with the same unrolled
    AES-128 round structure and per-block cost. *)
val cbc_decrypt_into : key -> iv:Bytes.t -> iv_off:int -> Bytes.t -> int -> int -> unit

(** One-shot block APIs (fresh output buffer). *)
val encrypt_block_copy : key -> Bytes.t -> Bytes.t

val decrypt_block_copy : key -> Bytes.t -> Bytes.t
