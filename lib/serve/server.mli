(** Sentry-as-a-service: an open-loop lock/unlock server over the
    batched pipeline — bounded admission with backpressure verdicts,
    a Poisson/diurnal arrival schedule on the simulated clock, batch
    serving through the installed protection backend, and an optional
    chaos-soak mode
    that injects lock-walk crashes mid-traffic and recovers without
    stopping arrivals.  See DESIGN.md §14. *)

open Sentry_core

type config = {
  tenants : int;  (** pool size (fleet tenant-class mix by index) *)
  pages_per_proc : int;  (** medium tenant main-region pages *)
  rate_hz : float;  (** base Poisson arrival rate (simulated Hz) *)
  burst : float;  (** peak-quarter multiplier (diurnal profile) *)
  duration_s : float;  (** simulated arrival-generation span *)
  queue_depth : int;  (** admission FIFO depth (per shard) *)
  backlog_pages_max : int;  (** page backlog cap (journal/iRAM model) *)
  batch_max : int;  (** requests served per unlock/lock cycle *)
  seed : int;
  soak : bool;  (** inject crashes into periodic re-locks *)
  soak_period : int;  (** crash every Nth batch when soaking *)
  backend : Sentry.backend;
}

(** 8 tenants × 8 pages, 40 req/s base with a 3× peak quarter over
    2 simulated seconds, queue depth 64, batches of 8, no soak. *)
val default : config

(** Per-class latency summary: the fleet's, field for field. *)
type dist = Sentry_workloads.Fleet.latency = {
  count : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
}

type stats = {
  config : config;
  requests : int;  (** arrivals offered to admission *)
  served : int;
  shed : int;  (** queue-depth overflow drops *)
  rejected : int;  (** page-backlog saturation drops *)
  batches : int;  (** unlock → serve → lock cycles run *)
  crashes_injected : int;  (** soak crashes that actually fired *)
  recoveries : int;  (** successful [Sentry.recover] passes *)
  audit_findings : int;  (** post-recovery consistency findings (want 0) *)
  pages_locked : int;  (** summed over completed lock passes *)
  pages_fixed : int;  (** pages rolled forward by recovery *)
  pages_faulted : int;  (** lazy decrypt faults served *)
  shed_rate : float;  (** (shed + rejected) / requests, 0 when idle *)
  latency_samples : (string * float) list;
      (** (tenant_class, unlock_to_first_touch_ns) in service order *)
  queue_wait_samples : (string * float) list;
      (** (tenant_class, queue_wait_ns) in service order *)
  latency_by_class : (string * dist) list;
  queue_wait_by_class : (string * dist) list;
  sim_elapsed_ns : float;
  energy_j : float;
}

(** The page footprint a request charges against the admission
    backlog: its first-touch page plus the tenant's eager-DMA churn. *)
val request_pages : pages_per_proc:int -> Arrivals.request -> int

(** Record a run's samples and counters into a registry under
    [serve/…{tenant_class=…}] — the labeled fan-in sharded runs
    [Metrics.merge].  Excludes the shed-rate gauge (rates don't merge);
    see {!set_shed_rate}. *)
val record_into : Sentry_obs.Metrics.t -> stats -> unit

(** Set the [serve/shed_rate] gauge, stamped at simulated [ts].  Call
    once per merged registry, never per shard. *)
val set_shed_rate : Sentry_obs.Metrics.t -> ts:float -> float -> unit

type sharded = {
  merged : stats;  (** deterministic fold over shard stats, in shard order *)
  shards : stats Sentry_workloads.Shard.t;
      (** per-shard stats, wall time, merged registry (with the
          shed-rate gauge set over merged counts) and recorder *)
}

(** [run_sharded ~domains cfg] — serve every shard's filtered
    sub-stream of the (identically regenerated) global schedule
    through {!Sentry_workloads.Shard.run} and fold results in shard
    order.  Merged outputs are invariant in [domains]; only the wall
    time changes.
    @raise Invalid_argument on an invalid config or non-positive
    [domains]/[shards]. *)
val run_sharded : ?platform:Config.platform -> ?shards:int -> domains:int -> config -> sharded

(** [run cfg] — the one-shard plan: [(run_sharded ~shards:1 ~domains:1
    cfg).merged], run in the calling domain.  With [?metrics], samples,
    counters and the shed-rate gauge land in the registry.
    @raise Invalid_argument on an invalid config. *)
val run : ?platform:Config.platform -> ?metrics:Sentry_obs.Metrics.t -> config -> stats

(** Machine-readable stats: simulated / deterministic fields only (no
    host wall time), so serialized documents are bit-identical across
    domain counts. *)
val json : stats -> Sentry_obs.Json_out.t

val pp : Format.formatter -> stats -> unit
val pp_sharded : Format.formatter -> sharded -> unit
