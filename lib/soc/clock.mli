(** Simulated wall clock (nanoseconds). *)

(** The record is exposed so that the per-cache-line paths can add to
    [now_ns] in place: a one-field float record is stored flat, so an
    in-place add allocates nothing and needs no call. *)
type t = { mutable now_ns : float }

val create : unit -> t
val now : t -> float
val advance : t -> float -> unit
val reset : t -> unit
val elapsed : t -> since:float -> float

(** Run a thunk and return its result with the simulated time it
    consumed. *)
val timed : t -> (unit -> 'a) -> 'a * float
