(** SHA-256 (FIPS 180-4) and HMAC-SHA256 (FIPS 198-1), from scratch.
    Substrate for ESSIV IV derivation and key stretching. *)

val digest : Bytes.t -> Bytes.t
val digest_string : string -> Bytes.t
val hmac : key:Bytes.t -> Bytes.t -> Bytes.t
