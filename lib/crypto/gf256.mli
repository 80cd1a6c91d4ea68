(** Arithmetic in GF(2^8) with the AES reduction polynomial 0x11b. *)

(** Multiply by x (i.e. by 2) in the field. *)
val xtime : int -> int

(** Field multiplication. *)
val mul : int -> int -> int

(** [pow a n] by square-and-multiply. *)
val pow : int -> int -> int

(** Multiplicative inverse; [inv 0 = 0] by AES convention. *)
val inv : int -> int

(** S-box entry: affine transform of the field inverse. *)
val sbox_entry : int -> int
