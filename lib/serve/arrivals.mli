(** Open-loop arrival generation on the simulated clock: a seeded
    Poisson stream with a four-phase diurnal profile (night at half
    rate, two shoulders at the base rate, a peak quarter at the burst
    multiplier).  A schedule is a pure function of its {!config}, so
    every shard of a sharded serve run can regenerate it bit-for-bit
    and filter out its own tenants. *)

type request = {
  id : int;  (** 0-based arrival order over the whole schedule *)
  at_ns : float;  (** simulated arrival time *)
  tenant : int;  (** global tenant index in the pool *)
  cls : string;  (** {!Sentry_workloads.Fleet.tenant_class} of [tenant] *)
}

type config = {
  rate_hz : float;  (** base Poisson arrival rate (simulated Hz) *)
  burst : float;  (** peak-quarter multiplier over the base rate *)
  duration_s : float;  (** simulated span the schedule covers *)
  tenants : int;  (** pool size arrivals are drawn from *)
  seed : int;
}

(** The full schedule, in arrival order.  Deterministic in [config].
    @raise Invalid_argument on a non-positive rate, duration or tenant
    count, or a negative burst. *)
val generate : config -> request list
