(** AES lookup tables, derived at startup from [Gf256].  The layout
    matches Table 4: one 1 KB encryption round table, one 1 KB
    decryption table, both S-boxes and the 40-byte Rcon — none secret,
    all access-protected. *)

val sbox : int array
val inv_sbox : int array

(** Rcon as ten round-constant bytes. *)
val rcon : int array

(** Encryption round-table entry for S-box input [x]: the bytes
    (2s, s, s, 3s) where s = sbox x. *)
val te_entry : int -> int * int * int * int

(** Word-packed copies for the fast cipher (byte 0 most significant). *)
val te_words : int array

val td_words : int array

(** Byte-rotated copies of [te_words]/[td_words] (by 8, 16 and 24
    bits) so the fast cipher's inner loop is pure table lookups with
    no rotation work.  Derived at startup; never secret. *)
val te_words_r8 : int array

val te_words_r16 : int array
val te_words_r24 : int array
val td_words_r8 : int array
val td_words_r16 : int array
val td_words_r24 : int array

(** Serialised forms placed in (simulated) memory by the instrumented
    cipher; entry [x] occupies bytes [4x..4x+3]. *)
val te_bytes : Bytes.t

val td_bytes : Bytes.t
val sbox_bytes : Bytes.t
val inv_sbox_bytes : Bytes.t
val rcon_bytes : Bytes.t
