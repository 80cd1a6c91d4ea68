(** Energy accounting (joules) with per-category attribution. *)

type t

val create : unit -> t
val charge : t -> category:string -> float -> unit

(** A pre-resolved charging handle for one category: resolves the
    accumulator cell once so per-cache-line charges skip the category
    lookup.  Interchangeable and bit-identical with [charge]. *)
type meter

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
