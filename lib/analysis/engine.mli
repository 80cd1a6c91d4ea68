(** The checker engine: wires a checker set into a live [Sentry.t]'s
    machine and accumulates violations.

    Event sources: lock-state transitions, every external-bus
    transaction, every dirty-line writeback, every device-initiated
    DMA read, and explicit sweeps ([check_now]).  Checker evaluation
    never recurses: events generated by a checker's own (legitimate)
    reads of the memory system are dropped while dispatching. *)

type t

(** [attach ?checkers sentry] — hook the engine into the machine
    (default rule set: {!Checkers.all}).  Enables taint tracking if
    the configuration did not already (the shadow stores may then miss
    writes that predate this call). *)
val attach : ?checkers:Checker.packed list -> Sentry_core.Sentry.t -> t

(** Unhook every event source.  The recorded violations stay
    readable. *)
val detach : t -> unit

(** Run every checker against the machine as it stands. *)
val check_now : t -> unit

(** All recorded violations, oldest first. *)
val violations : t -> Checker.violation list

(** Events dispatched so far (including sweeps). *)
val events_seen : t -> int

(** Drop the recorded violations (the engine stays attached). *)
val clear : t -> unit

(** Human-readable report: per-rule counts, then each violation. *)
val report : t -> string
