(** Energy accounting (joules) with per-category attribution. *)

(** An accumulator: a one-field float record, stored flat, so adding
    to it in place allocates nothing. *)
type cell = { mutable j : float }

type t

val create : unit -> t
val charge : t -> category:string -> float -> unit

(** A pre-resolved charging handle for one category: [totals] is the
    shared total and [own] the category's cell, resolved once so
    per-cache-line charges skip the category lookup.  A charge of [j]
    is [totals.j <- totals.j +. j] then [own.j <- own.j +. j], in that
    order; callers on a hot path may make those two adds themselves.
    Interchangeable and bit-identical with [charge].  [meter] creates
    the category (at 0 J) if it has no cell yet. *)
type meter = { totals : cell; own : cell }

val meter : t -> category:string -> meter
val meter_charge_bytes : meter -> per_byte_j:float -> int -> unit

val total : t -> float

(** Joules charged to one category so far (0 if never charged). *)
val category : t -> string -> float

(** All (category, joules) pairs, sorted by name. *)
val categories : t -> (string * float) list

val reset : t -> unit

(** Run a thunk and return its result with the energy charged to the
    category during the call. *)
val metered : t -> category:string -> (unit -> 'a) -> 'a * float

val pp : Format.formatter -> t -> unit
