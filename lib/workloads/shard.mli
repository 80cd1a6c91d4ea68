(** The one shard executor behind [Fleet.run_sharded] and
    [Server.run_sharded]: cut [procs] tenants into contiguous blocks,
    run one slice per block with private per-shard inputs, and merge
    the shards' metrics registries and trace recorders in shard order.
    Merged outputs are invariant in the domain count.  See DESIGN.md
    §13. *)

type 'a t = {
  domains : int;  (** domains that executed the plan *)
  seed : int;  (** run seed; shard [s] ran with [seed + 7919 s] *)
  plan : (int * int) list;  (** [(first, count)] per shard *)
  results : 'a list;  (** slice results, in shard order *)
  faults_fired : int list;  (** injector firings per shard, in shard order *)
  wall_s : float;  (** host time over the whole execution *)
  merged_metrics : Sentry_obs.Metrics.t;  (** shard registries merged in shard order *)
  merged_recorder : Sentry_obs.Trace.Recorder.t option;
      (** shard recorders merged in shard order; [None] unless the
          caller had a recorder installed *)
}

(** Default shard count for [procs] tenants: [min procs 16]. *)
val default_shards : procs:int -> int

(** [(first, count)] per shard: contiguous blocks of ⌈procs/shards⌉.
    Pure in [(procs, shards)]; [shards] is clamped to [procs]. *)
val plan : procs:int -> shards:int -> (int * int) list

(** [run ~seed ~domains ~procs slice] cuts [procs] tenants with
    {!plan} ([?shards], default {!default_shards}) and calls [slice]
    once per shard with seed [seed + 7919 s] (shard 0 keeps the run
    seed), [pid_base = first + 1] and
    a fresh registry.  Each shard gets a trace recorder (of the
    caller's capacity) iff the caller has one installed, and an
    injector session over [?faults] (plan seed offset by the shard
    index) iff given.  At [domains = 1] the shards run in the calling
    domain with its recorder and injector session set aside and
    restored afterwards; above that they run on a [Dpool].  The first
    shard's exception propagates.
    @raise Invalid_argument on non-positive [domains] or [shards]. *)
val run :
  ?shards:int ->
  ?faults:Sentry_faults.Plan.t ->
  seed:int ->
  domains:int ->
  procs:int ->
  (seed:int -> pid_base:int -> first:int -> count:int -> metrics:Sentry_obs.Metrics.t -> 'a) ->
  'a t

(** A header line (shard count, domains, wall) and one line per shard:
    tenant and pid ranges, seed, the slice's own summary, and faults
    fired when any shard fired one. *)
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
