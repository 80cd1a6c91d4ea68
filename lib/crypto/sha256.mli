(** SHA-256 (FIPS 180-4), from scratch.
    Substrate for ESSIV IV derivation and key stretching. *)

val digest : Bytes.t -> Bytes.t
val digest_string : string -> Bytes.t
