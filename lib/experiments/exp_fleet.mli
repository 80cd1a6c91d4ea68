(** Fleet throughput: the batched lock/unlock walk at
    N ∈ {4, 32, 128} processes. *)

val fleet_sizes : int list

(** Fleet stats at [n] processes, best host throughput of [trials]
    runs (simulated outputs are deterministic and identical across
    runs). *)
val measure : ?trials:int -> int -> Sentry_workloads.Fleet.stats

val run : unit -> Sentry_util.Table.t list
