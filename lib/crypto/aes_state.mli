(** Classification and layout of AES's working state (§6.1, Table 4):
    Secret (key material), Public (counters, chaining vector) and
    Access-protected (lookup tables whose {e access pattern} leaks).
    Doubles as the instrumented cipher's concrete context layout. *)

type sensitivity = Secret | Public | Access_protected

val pp_sensitivity : Format.formatter -> sensitivity -> unit

type field = { name : string; size : int; sensitivity : sensitivity; offset : int }

(** The context fields in memory order (word-aligned offsets). *)
val layout : Aes_key.size -> field list

(** @raise Invalid_argument for an unknown field name. *)
val find : field list -> string -> field

(** Raw state bytes — the Table 4 sum, no padding. *)
val total_size : Aes_key.size -> int

(** Context footprint in memory, padding included (fits one 4 KB
    page for every key size). *)
val context_bytes : Aes_key.size -> int

(** (secret, public, access-protected) byte totals. *)
val by_sensitivity : Aes_key.size -> int * int * int
