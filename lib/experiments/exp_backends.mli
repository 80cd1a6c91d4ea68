(** Backend race ("backends"): the three protection backends over the
    Fig-2/Fig-4 app cycle, the fleet churn workload and the open-loop
    server, plus the measured lock-size crossover between the batched
    CPU path and the MemShield-style offload queue. *)

(** Simulated elapsed time of one lock walk over a [pages]-page
    process under [backend]. *)
val lock_elapsed_ns : Sentry_core.Sentry.backend -> pages:int -> float

(** Simulated cost of one lazy fault after unlock under [backend]. *)
val fault_elapsed_ns : Sentry_core.Sentry.backend -> float

(** The lock-walk sizes the crossover sweep probes. *)
val sweep_sizes : int list

(** Smallest lock batch (pages) where the offload queue's simulated
    lock walk is at least as fast as the batched CPU path; [None] if
    it never catches up over [sweep_sizes]. *)
val lock_crossover_pages : unit -> int option

(** The app cycle (MP3 profile) under each backend. *)
val app_race : unit -> (Sentry_core.Sentry.backend * Exp_apps.metrics) list

val run : unit -> Sentry_util.Table.t list
