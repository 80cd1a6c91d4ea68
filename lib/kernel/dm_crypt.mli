(** dm-crypt: transparent per-sector CBC-ESSIV block encryption over a
    lower target, through whichever "cbc(aes)" cipher the Crypto API
    resolves — the stock one or AES_On_SoC, by priority alone (§7). *)

open Sentry_crypto

type t

(** [create ~api ~key lower] — through the highest-priority
    "cbc(aes)" driver, with ESSIV IVs derived from [key].
    @raise Not_found if nothing implements "cbc(aes)". *)
val create : api:Crypto_api.t -> key:Bytes.t -> Blockio.t -> t

(** Which driver the registry picked (e.g. "aes-on-soc"). *)
val cipher_name : t -> string

val read_sector : t -> int -> Bytes.t
val write_sector : t -> int -> Bytes.t -> unit

(** The decrypted view; unaligned I/O uses sector read-modify-write. *)
val target : t -> Blockio.t

(** (sectors encrypted, sectors decrypted). *)
val stats : t -> int * int
