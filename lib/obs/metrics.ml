(** Metrics registry: named counters, gauges and HDR-style histograms,
    registered per subsystem with optional low-cardinality labels.

    A registry is a plain value — experiments and the CLI build one,
    point subsystems at it (or harvest component stats into it), and
    flatten it into the machine-readable report behind
    [BENCH_sentry.json].  Keys are ["subsystem/name"], with sorted
    labels appended as ["{k=v,k2=v2}"]; histogram keys fan out into
    [.../count], [.../mean], [.../p50], [.../p95], [.../p99],
    [.../p999] and [.../max].

    {b Bounded memory.}  A histogram stores a fixed 256-entry
    reservoir (the first observations, exact) plus explicit
    log2-octave buckets with 16 linear sub-buckets per octave — so a
    long fleet soak costs O(1) per instrument no matter how many
    samples it records.  Percentiles are exact while the sample count
    fits the reservoir and bucket-upper-bound estimates (≤ 6.25%
    relative error) beyond it.

    {b Merge.}  [snapshot]/[merge] combine per-shard registries
    deterministically: counters add, gauges resolve last-writer by
    simulated timestamp, histograms add bucket occupancy and
    concatenate reservoirs in merge order.  Merging registries whose
    histograms all still fit the reservoir reproduces a single global
    registry key-for-key — the fan-in the Domains-sharded fleet
    needs. *)

type counter = { mutable count : int }
type gauge = { mutable value : float; mutable ts : float (* simulated ns of last set *) }

let reservoir_capacity = 256
let num_octaves = 64
let sub_buckets = 16

(* Bucket 0 is the underflow bucket (values < 1); bucket
   [1 + oct*16 + sub] covers [2^oct * (1 + sub/16), 2^oct * (1 + (sub+1)/16)). *)
let num_buckets = 1 + (num_octaves * sub_buckets)

type histogram = {
  res : float array; (* first [reservoir_capacity] observations, exact *)
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  buckets : int array;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* Label keys/values feed the flat key verbatim, so the characters the
   key grammar uses are off limits. *)
let check_label_atom s =
  String.iter
    (fun c ->
      match c with
      | '{' | '}' | ',' | '=' | '/' | '\n' -> invalid_arg ("Metrics: label contains '" ^ String.make 1 c ^ "': " ^ s)
      | _ -> ())
    s

let label_suffix = function
  | [] -> ""
  | labels ->
      List.iter
        (fun (k, v) ->
          check_label_atom k;
          check_label_atom v)
        labels;
      let sorted = List.sort compare labels in
      "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) sorted) ^ "}"

let key ~subsystem ?(labels = []) name = subsystem ^ "/" ^ name ^ label_suffix labels

let register t ~subsystem ?labels name make describe =
  let k = key ~subsystem ?labels name in
  match Hashtbl.find_opt t.table k with
  | Some i -> i
  | None ->
      let i = make () in
      ignore describe;
      Hashtbl.add t.table k i;
      i

let counter t ~subsystem ?labels name =
  match register t ~subsystem ?labels name (fun () -> C { count = 0 }) "counter" with
  | C c -> c
  | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ key ~subsystem ?labels name ^ " is not a counter")

let gauge t ~subsystem ?labels name =
  match register t ~subsystem ?labels name (fun () -> G { value = 0.0; ts = 0.0 }) "gauge" with
  | G g -> g
  | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ key ~subsystem ?labels name ^ " is not a gauge")

let make_histogram () =
  H
    {
      res = Array.make reservoir_capacity 0.0;
      n = 0;
      sum = 0.0;
      minv = 0.0;
      maxv = 0.0;
      buckets = Array.make num_buckets 0;
    }

let histogram t ~subsystem ?labels name =
  match register t ~subsystem ?labels name make_histogram "histogram" with
  | H h -> h
  | C _ | G _ ->
      invalid_arg ("Metrics.histogram: " ^ key ~subsystem ?labels name ^ " is not a histogram")

let inc ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let set g v = g.value <- v
let set_at g ~ts v =
  g.value <- v;
  g.ts <- ts

let gauge_value g = g.value

(** HDR bucket for a (non-negative) observation: log2 octave plus a
    linear 1/16 sub-bucket within it; values below 1 (and NaN) land in
    the underflow bucket 0. *)
let bucket_of v =
  if not (v >= 1.0) then 0
  else
    let oct = min (num_octaves - 1) (int_of_float (Float.log2 v)) in
    let base = Float.pow 2.0 (float_of_int oct) in
    let sub = max 0 (min (sub_buckets - 1) (int_of_float ((v /. base -. 1.0) *. float_of_int sub_buckets))) in
    1 + (oct * sub_buckets) + sub

let bucket_lower i =
  if i = 0 then 0.0
  else
    let oct = (i - 1) / sub_buckets and sub = (i - 1) mod sub_buckets in
    Float.pow 2.0 (float_of_int oct) *. (1.0 +. (float_of_int sub /. float_of_int sub_buckets))

let bucket_upper i =
  if i = 0 then 1.0
  else
    let oct = (i - 1) / sub_buckets and sub = (i - 1) mod sub_buckets in
    Float.pow 2.0 (float_of_int oct) *. (1.0 +. (float_of_int (sub + 1) /. float_of_int sub_buckets))

let observe h v =
  if h.n < reservoir_capacity then h.res.(h.n) <- v;
  (if h.n = 0 then begin
     h.minv <- v;
     h.maxv <- v
   end
   else begin
     if v < h.minv then h.minv <- v;
     if v > h.maxv then h.maxv <- v
   end);
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_count h = h.n

(** The retained exact observations: everything while the count fits
    the reservoir, the first [reservoir_capacity] beyond that. *)
let observations h = Array.sub h.res 0 (min h.n reservoir_capacity)

(** Occupied buckets as [(lower_bound, count)] pairs. *)
let bucket_counts h =
  List.filter
    (fun (_, n) -> n > 0)
    (List.init num_buckets (fun i -> (bucket_lower i, h.buckets.(i))))

(** Exact (sorted reservoir) while [n] fits the reservoir; nearest-rank
    over bucket upper bounds beyond, clamped to the tracked max. *)
let hist_percentile h p =
  if h.n = 0 then 0.0
  else if h.n <= reservoir_capacity then Sentry_util.Stats.percentile p (observations h)
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n))) in
    let rec walk i seen =
      if i >= num_buckets then h.maxv
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then Float.min (bucket_upper i) h.maxv else walk (i + 1) seen
    in
    walk 0 0
  end

(* The exact-path reductions run over a *sorted* copy of the reservoir
   so they depend only on the multiset of samples, not arrival order —
   that is what makes sharded runs merge bit-identically. *)
let exact_sorted h =
  let xs = observations h in
  Array.sort Float.compare xs;
  xs

let hist_mean h =
  if h.n = 0 then 0.0
  else if h.n <= reservoir_capacity then
    Array.fold_left ( +. ) 0.0 (exact_sorted h) /. float_of_int h.n
  else h.sum /. float_of_int h.n

let hist_max h = h.maxv
let hist_min h = h.minv

(** Flatten into sorted [(key, value)] pairs. *)
let flat t =
  let rows = ref [] in
  Hashtbl.iter
    (fun k i ->
      match i with
      | C c -> rows := (k, float_of_int c.count) :: !rows
      | G g -> rows := (k, g.value) :: !rows
      | H h ->
          rows := (k ^ "/count", float_of_int h.n) :: !rows;
          if h.n > 0 then
            rows :=
              (k ^ "/mean", hist_mean h)
              :: (k ^ "/p50", hist_percentile h 50.0)
              :: (k ^ "/p95", hist_percentile h 95.0)
              :: (k ^ "/p99", hist_percentile h 99.0)
              :: (k ^ "/p999", hist_percentile h 99.9)
              :: (k ^ "/max", hist_max h)
              :: !rows)
    t.table;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

(** Bulk-harvest scalar readings as gauges. *)
let set_many t ~subsystem pairs =
  List.iter (fun (name, v) -> set (gauge t ~subsystem name) v) pairs

(* ------------------------ snapshot & merge ------------------------ *)

let copy_instrument = function
  | C c -> C { count = c.count }
  | G g -> G { value = g.value; ts = g.ts }
  | H h ->
      H
        {
          res = Array.copy h.res;
          n = h.n;
          sum = h.sum;
          minv = h.minv;
          maxv = h.maxv;
          buckets = Array.copy h.buckets;
        }

(** An isolated deep copy — safe to merge or export while the source
    registry keeps recording. *)
let snapshot t =
  let table = Hashtbl.create (max 16 (Hashtbl.length t.table)) in
  Hashtbl.iter (fun k i -> Hashtbl.replace table k (copy_instrument i)) t.table;
  { table }

(* Merge the exact-sample reservoirs.  While the combined count still
   fits the reservoir, concatenation keeps every sample and the exact
   percentile path stays lossless.  Beyond that the old code kept
   [h]'s reservoir and appended a *prefix* of [h']'s — a biased
   subsample (shard 0's earliest arrivals crowd out everything else).
   Instead, deterministically downsample both sides with a stride
   keyed on (retained, quota): each side gets a slot share
   proportional to its *total* observation count, and slot [j] takes
   retained sample [j * retained / quota] — an order-of-merge
   artifact-free spread over each side's retained window.  (Merged
   percentiles beyond the reservoir come from the bucket counts,
   which add exactly; the reservoir only feeds [observations] and the
   exact path, so representativeness is what matters here.) *)
let merge_hist h h' =
  let va = min h.n reservoir_capacity and vb = min h'.n reservoir_capacity in
  if va + vb <= reservoir_capacity then begin
    if vb > 0 then Array.blit h'.res 0 h.res va vb
  end
  else begin
    let total = float_of_int (h.n + h'.n) in
    let ka = int_of_float (Float.round (float_of_int reservoir_capacity *. float_of_int h.n /. total)) in
    (* clamp so each side's quota is coverable by its retained samples *)
    let ka = max (reservoir_capacity - vb) (min ka va) in
    let kb = reservoir_capacity - ka in
    let out = Array.make reservoir_capacity 0.0 in
    for j = 0 to ka - 1 do
      out.(j) <- h.res.(j * va / ka)
    done;
    for j = 0 to kb - 1 do
      out.(ka + j) <- h'.res.(j * vb / kb)
    done;
    Array.blit out 0 h.res 0 reservoir_capacity
  end;
  if h'.n > 0 then
    if h.n = 0 then begin
      h.minv <- h'.minv;
      h.maxv <- h'.maxv
    end
    else begin
      if h'.minv < h.minv then h.minv <- h'.minv;
      if h'.maxv > h.maxv then h.maxv <- h'.maxv
    end;
  h.n <- h.n + h'.n;
  h.sum <- h.sum +. h'.sum;
  for i = 0 to num_buckets - 1 do
    h.buckets.(i) <- h.buckets.(i) + h'.buckets.(i)
  done

(** [merge a b] — a fresh registry combining both: counters add,
    gauges keep the later write (simulated timestamp, value ties
    broken toward the larger value so the operation is commutative),
    histograms add bucket occupancy / count / sum and keep a
    count-weighted deterministic downsample of both reservoirs
    (lossless concatenation while the combined count still fits).
    @raise Invalid_argument if a key exists in both with different
    instrument kinds. *)
let merge a b =
  let t = snapshot a in
  Hashtbl.iter
    (fun k i ->
      match (Hashtbl.find_opt t.table k, i) with
      | None, i -> Hashtbl.replace t.table k (copy_instrument i)
      | Some (C c), C c' -> c.count <- c.count + c'.count
      | Some (G g), G g' -> if (g'.ts, g'.value) > (g.ts, g.value) then set_at g ~ts:g'.ts g'.value
      | Some (H h), H h' -> merge_hist h h'
      | Some _, (C _ | G _ | H _) -> invalid_arg ("Metrics.merge: instrument kind mismatch for " ^ k))
    b.table;
  t
