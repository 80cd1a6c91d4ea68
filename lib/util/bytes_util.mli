(** Byte-buffer helpers shared by the simulator and the attack tools. *)

(** Tile [pat] across the whole buffer.
    @raise Invalid_argument on an empty pattern. *)
val fill_pattern : Bytes.t -> Bytes.t -> unit

(** Count non-overlapping, pattern-aligned occurrences (the Table 2
    remanence metric). *)
val count_pattern : Bytes.t -> Bytes.t -> int

(** Offset of the first occurrence, if any. *)
val find : Bytes.t -> Bytes.t -> int option

(** [find_in b ~off ~len needle] — offset in [b] of the first
    occurrence lying wholly inside the window [off, off + len), if any.
    @raise Invalid_argument on a window outside [b]. *)
val find_in : Bytes.t -> off:int -> len:int -> Bytes.t -> int option

val contains : Bytes.t -> Bytes.t -> bool

(** Xor [src] into [dst] in place; lengths must match. *)
val xor_into : src:Bytes.t -> dst:Bytes.t -> unit

(** Constant-time equality (length leak only). *)
val equal_ct : Bytes.t -> Bytes.t -> bool

(** [equal_view a a_off b b_off len] — do the [len]-byte views of [a]
    at [a_off] and [b] at [b_off] hold the same bytes?  A word-wise
    compare that stops at the first difference and allocates nothing;
    not constant time.
    @raise Invalid_argument on a view outside its buffer. *)
val equal_view : Bytes.t -> int -> Bytes.t -> int -> int -> bool

val is_zero : Bytes.t -> bool
val zero : Bytes.t -> unit
