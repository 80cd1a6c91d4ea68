(** Summary statistics over measurement series.

    Every experiment in the paper is "repeated at least ten times" and
    plotted as average plus standard deviation; this module provides the
    same reduction. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

(* NaN-safe extrema: [Float.compare] is a total order (NaN sorts below
   every number), unlike [min]/[max] which propagate NaN asymmetrically
   depending on argument order. *)
let fmin a b = if Float.compare a b <= 0 then a else b
let fmax a b = if Float.compare a b >= 0 then a else b

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty series";
  let sum = Array.fold_left ( +. ) 0.0 xs in
  let mean = sum /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    /. float_of_int n
  in
  let mn = Array.fold_left fmin xs.(0) xs in
  let mx = Array.fold_left fmax xs.(0) xs in
  { n; mean; stddev = sqrt var; min = mn; max = mx }

(** [repeat ~trials f] runs [f trial_index] and summarizes the results. *)
let repeat ~trials f = summarize (Array.init trials (fun i -> f i))

(** [percentile p xs] with [p] in [0,100]; nearest-rank on a sorted copy. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty series";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let mean xs = (summarize xs).mean

(** Ratio of two means, used for overhead factors such as "2.74x". *)
let overhead ~base ~measured =
  if base = 0.0 then infinity else measured /. base
