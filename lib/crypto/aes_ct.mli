(** Table-free AES: no lookup tables, hence no access-protected state
    — the ablation point for what hiding access patterns costs
    without on-SoC storage (cf. AESSE/TRESOR, §9).  Slow by design;
    pinned to the same FIPS vectors. *)

type key = Aes_key.t

val expand : Bytes.t -> key

val encrypt_block : key -> Bytes.t -> int -> Bytes.t -> int -> unit
val decrypt_block : key -> Bytes.t -> int -> Bytes.t -> int -> unit

(** As a [Mode.cipher]. *)
val cipher : key -> Mode.cipher
