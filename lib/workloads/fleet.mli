(** Multi-tenant fleet churn workload: N sensitive processes × M
    pages through repeated lock / background-service-wake / unlock
    cycles with dm-crypt I/O interleaved while locked.  The stress
    case for the batched lock/unlock pipeline, and the source of the
    per-tenant-class unlock-to-first-touch latency distributions the
    SLO gate watches.

    [run_sharded] runs contiguous tenant shards through the {!Shard}
    executor, each owning a private [System], trace recorder, metrics
    registry, fault-injector session, PRNG seed and pid range.  The
    partition and all per-shard inputs depend only on [(procs,
    shards)] — never on the domain count — so merged outputs are
    bit-identical across [D].  [run] is the one-shard plan.  See
    DESIGN.md §13. *)

open Sentry_core

type config = {
  procs : int;  (** N sensitive processes *)
  pages_per_proc : int;  (** M pages in a medium tenant's main region *)
  cycles : int;  (** lock → service wakes → unlock rounds *)
  touch_fraction : float;  (** fraction of pages faulted in after unlock *)
  service_wakes : int;  (** background timer wakes per locked period *)
  io_sectors : int;  (** dm-crypt sectors written+read per wake *)
  backend : Sentry.backend;  (** protection backend driving every slice *)
}

(** 8 procs × 16 pages, 3 cycles, 25% touch, 1 wake × 8 sectors,
    batched. *)
val default : config

(** Stable label for a backend ("batched" / "offload" / "no-access");
    alias of [Backend.kind_name]. *)
val backend_label : Sentry.backend -> string

(** Tenant class by (global) spawn index: every 4th process is
    ["large"] (2×M pages + a DMA region), every 4k+3rd ["small"] (M/2
    pages), the rest ["medium"] (M pages). *)
val tenant_class : index:int -> string

(** Main-region pages for the tenant at [index] when a medium tenant
    gets [pages_per_proc] (large 2×, small half, floor 1).  Exposed so
    other harnesses (the serve front end) can reproduce the exact
    fleet footprint mix. *)
val main_pages_for : index:int -> pages_per_proc:int -> int

(** DMA-region pages for the tenant at [index]: a quarter of
    [pages_per_proc] for large tenants (floor 1), 0 for the rest. *)
val dma_pages_for : index:int -> pages_per_proc:int -> int

type latency = {
  count : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
}

type stats = {
  config : config;
  fleet_pages : int;  (** resident pages across the fleet (incl. DMA) *)
  pages_locked : int;  (** summed over all lock passes *)
  pages_unlocked_eager : int;  (** DMA pages decrypted eagerly *)
  pages_faulted : int;  (** lazy decrypt faults served *)
  service_wakes_run : int;
  io_sectors_done : int;  (** dm-crypt sectors written + read *)
  lock_wall_s : float;  (** host time inside the lock passes, summed over shards *)
  unlock_wall_s : float;  (** host time inside the unlock passes, summed over shards *)
  lock_pages_per_s : float;  (** pages_locked / lock_wall_s: the lock walk's host rate *)
  unlock_to_first_touch_ns : float;
      (** simulated ns from unlock start to a tenant's first page
          being readable, averaged over every tenant and cycle *)
  first_touch_samples : (string * float) list;
      (** every (tenant_class, latency_ns) sample in service order —
          the raw distribution behind [latency_by_class] *)
  latency_by_class : (string * latency) list;
      (** per-tenant-class summary, sorted by class name *)
  sim_elapsed_ns : float;
      (** simulated time the run consumed; in a merge, the slowest
          shard's (shards are concurrent in simulated time too) *)
  energy_j : float;  (** metered AES energy over the run *)
  dram_resident_bytes : int;
      (** simulated-DRAM bytes the run made resident on the host
          ({!Sentry_soc.Dram.resident_bytes} at the end), summed over
          shards *)
}

(** End-of-run digests of one tenant's crypto-relevant state: the
    ESSIV IV stream over every (pid, vpn) page, and the page-table
    entries.  Pids feed the IVs, so these digests catch any drift in
    pid assignment or page-table outcome between execution
    strategies — the differential D=1 vs D=4 test compares them. *)
type fingerprint = {
  tenant_index : int;  (** global spawn index *)
  tenant_pid : int;
  tenant_cls : string;
  essiv_md5 : string;
  pte_md5 : string;
}

(** Feed first-touch samples into a registry as the labeled histogram
    [workloads.fleet/unlock_to_first_touch_ns{backend=…,tenant_class=…}].
    Exposed so per-shard registries can be built from raw samples and
    [Metrics.merge]d. *)
val record_latencies :
  Sentry_obs.Metrics.t -> backend:Sentry.backend -> (string * float) list -> unit

(** Per-class latency summary of [(tenant_class, ns)] samples, sorted
    by class name. *)
val summarize_by_class : (string * float) list -> (string * latency) list

type sharded = {
  merged : stats;  (** deterministic fold over shard stats, in shard order *)
  fingerprints : fingerprint list;  (** concatenated in tenant order *)
  shards : (stats * fingerprint list) Shard.t;
      (** per-shard results, wall time, merged registry and recorder *)
}

(** {!Shard.default_shards}. *)
val default_shards : procs:int -> int

(** {!Shard.plan}. *)
val shard_plan : procs:int -> shards:int -> (int * int) list

(** [run_sharded ~domains cfg] runs the fleet through {!Shard.run}
    (one slice per shard, recorder iff the caller traces, a per-shard
    copy of [?faults]) and folds the shard stats in shard order.
    Interrupting fault kinds propagate out.  Merged outputs are
    invariant in [domains]; only the host walls change.
    @raise Invalid_argument on invalid [cfg], [domains <= 0] or
    [shards <= 0]. *)
val run_sharded :
  ?platform:Config.platform ->
  ?seed:int ->
  ?shards:int ->
  ?faults:Sentry_faults.Plan.t ->
  domains:int ->
  config ->
  sharded

(** [run cfg] boots a fresh system, spawns the fleet (heterogeneous
    tenant classes, large tenants carry a DMA region), and drives
    [cfg.cycles] rounds of suspend → service wakes (dm-crypt I/O) →
    unlock → per-tenant first-touch sampling → touch churn.  Simulated
    outputs are backend-independent across the crypto backends; host
    wall-clock is what [cfg.backend] changes.  With [?metrics],
    first-touch samples are recorded via {!record_latencies}.

    This is the one-shard plan: [(run_sharded ~shards:1 ~domains:1
    cfg).merged], run in the calling domain.  When the caller traces,
    each cycle is wrapped in a ["fleet-cycle"] span in the shard's own
    recorder, which only {!run_sharded} returns.
    @raise Invalid_argument on non-positive [procs], [pages_per_proc]
    or [cycles]. *)
val run :
  ?platform:Config.platform ->
  ?seed:int ->
  ?metrics:Sentry_obs.Metrics.t ->
  config ->
  stats

val pp : Format.formatter -> stats -> unit

(** Per-shard lines (tenant/pid/seed ranges, pages locked, faults
    fired) followed by the merged {!pp}. *)
val pp_sharded : Format.formatter -> sharded -> unit
