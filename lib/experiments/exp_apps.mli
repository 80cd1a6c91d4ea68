(** Shared runner for the Figs 2-5 application macrobenchmarks: each
    app runs a full launch -> lock -> unlock+resume -> scripted-session
    cycle on the Nexus 4 configuration, with AES energy metered. *)

type metrics = {
  profile : Sentry_workloads.App.profile;
  lock_s : float;
  lock_mb : float;
  lock_j : float;
  unlock_s : float;
  unlock_mb : float;
  unlock_j : float;
  script_elapsed_s : float;
  script_overhead_pct : float;
  script_mb : float;
}

(** Run one app cycle under [backend] (default [Batched]). *)
val run_app :
  ?backend:Sentry_core.Sentry.backend -> Sentry_workloads.App.profile -> metrics

(** All four apps, one default-backend cycle each: the data of Figs
    2-5, which share one run of it through [Experiments.context]. *)
val all : unit -> metrics list
