(** Secret-provenance lattice and shadow-byte stores.

    One label per simulated byte: [Public < Ciphertext <
    Secret_cleartext].  Shadows are byte buffers ('\000'/'\001'/'\002'
    per data byte) so propagation reuses the data path's own
    blits/fills.  Allocation is lazy — tracking is opt-in via
    [Machine.enable_taint]. *)

type level = Public | Ciphertext | Secret_cleartext

val to_char : level -> char
val of_char : char -> level

(** Lattice rank: [Public] = 0, [Ciphertext] = 1,
    [Secret_cleartext] = 2. *)
val rank : level -> int

val join : level -> level -> level
val to_string : level -> string
val pp : Format.formatter -> level -> unit

(** A shadow for [n] data bytes, initially all [Public]. *)
val create_shadow : int -> Bytes.t

(** [fill shadow pos len level] labels a range uniformly. *)
val fill : Bytes.t -> int -> int -> level -> unit

(** [max_range shadow pos len] — the join over a range. *)
val max_range : Bytes.t -> int -> int -> level

val get : Bytes.t -> int -> level
val set : Bytes.t -> int -> level -> unit

(** [fuzzy_window shadow ~level ~len ~min_match] — does a window of
    [len] bytes exist where at least [min_match] (fraction) of bytes
    are labelled [>= level]?  Taint analogue of
    [Memdump.contains_fuzzy]. *)
val fuzzy_window : Bytes.t -> level:level -> len:int -> min_match:float -> bool

(** Maximal runs of bytes labelled [>= level], as [(offset, length)]
    pairs in offset order. *)
val runs : Bytes.t -> level:level -> (int * int) list
