(** Summary statistics over measurement series (the paper repeats
    every experiment ≥10 times and plots mean ± stddev). *)

type summary = { n : int; mean : float; stddev : float; min : float; max : float }

(** @raise Invalid_argument on an empty series. *)
val summarize : float array -> summary

val repeat : trials:int -> (int -> float) -> summary

(** Nearest-rank percentile, [p] in [0, 100]. *)
val percentile : float -> float array -> float

val mean : float array -> float

(** measured / base (infinity when base is 0). *)
val overhead : base:float -> measured:float -> float
