(** Harvest component statistics (bus, L2, CPU, scheduler, zerod, page
    crypt, background pager, lock state, the trace recorder) into a
    metrics registry under stable ["subsystem/name"] keys; [Complete]
    spans in the trace ring become duration histograms. *)

(** [Metrics.flat] of [collect]: the machine-readable report body. *)
val flat : ?recorder:Sentry_obs.Trace.Recorder.t -> Sentry.t -> (string * float) list
