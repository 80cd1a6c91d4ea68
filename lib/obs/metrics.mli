(** Registry of named counters, gauges and bounded HDR-style
    histograms, keyed by ["subsystem/name"] plus optional sorted
    low-cardinality labels (["subsystem/name{k=v,…}"]). *)

type counter
type gauge
type histogram
type t

val create : unit -> t

(** The flat key an instrument registers under.  Labels are sorted by
    key; label keys/values must not contain ['{'], ['}'], [','],
    ['='], ['/'] or newlines.
    @raise Invalid_argument on an ill-formed label. *)
val key : subsystem:string -> ?labels:(string * string) list -> string -> string

(** Register-or-fetch.  @raise Invalid_argument if the key exists
    with a different instrument kind, or on an ill-formed label. *)
val counter : t -> subsystem:string -> ?labels:(string * string) list -> string -> counter

val gauge : t -> subsystem:string -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> subsystem:string -> ?labels:(string * string) list -> string -> histogram

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

(** Set a gauge without touching its timestamp (stays at its previous
    write time; 0 initially). *)
val set : gauge -> float -> unit

(** Set a gauge stamped with the simulated time of the write — what
    [merge]'s last-writer-wins resolution keys on. *)
val set_at : gauge -> ts:float -> float -> unit

val gauge_value : gauge -> float

(** Record one observation: bumps count/sum/min/max and the HDR
    bucket; the first [reservoir_capacity] samples are also kept
    exactly.  O(1) memory per instrument. *)
val observe : histogram -> float -> unit

(** Samples retained exactly (capped at [reservoir_capacity]). *)
val reservoir_capacity : int

val hist_count : histogram -> int

(** Retained exact observations, in insertion order (truncated to
    [reservoir_capacity] once the count exceeds it). *)
val observations : histogram -> float array

(** Occupied HDR buckets as [(lower_bound, count)]. *)
val bucket_counts : histogram -> (float * int) list

(** Nearest-rank percentile (0 when empty): exact over the sorted
    reservoir while the count fits it, bucket-upper-bound estimate
    (≤ 6.25% relative error, clamped to the tracked max) beyond. *)
val hist_percentile : histogram -> float -> float

val hist_min : histogram -> float
val hist_max : histogram -> float

(** Sorted [(key, value)] pairs; histograms fan out into
    [/count], [/mean], [/p50], [/p95], [/p99], [/p999], [/max]. *)
val flat : t -> (string * float) list

(** Bulk-harvest scalar readings as gauges under one subsystem. *)
val set_many : t -> subsystem:string -> (string * float) list -> unit

(** {2 Snapshots and deterministic merge} *)

(** Isolated deep copy — safe to merge or export while the source
    keeps recording. *)
val snapshot : t -> t

(** [merge a b] — fresh registry combining both.  Counters add;
    gauges keep the later write by simulated timestamp (value ties
    broken toward the larger value, so merge is commutative);
    histograms add count/sum/bucket occupancy, keep global min/max
    and a count-weighted deterministic downsample of both reservoirs
    (lossless concatenation while the combined count fits, so merging
    shard registries whose histograms fit the reservoir reproduces a
    single global registry key-for-key).  Bucket counts, count,
    min/max — and therefore every percentile the flat report exports —
    merge exactly regardless of merge order.
    @raise Invalid_argument on instrument-kind mismatch. *)
val merge : t -> t -> t
