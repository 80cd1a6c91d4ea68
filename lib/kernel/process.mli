(** Process model: address space, scheduling state (including the
    un-schedulable [Locked_out] parking of §7) and the Sentry
    sensitivity mark. *)

type run_state = Runnable | Sleeping | Locked_out

type t = {
  pid : int;
  name : string;
  aspace : Address_space.t;
  kstack : int;  (** kernel stack frame (DRAM) for register spills *)
  mutable sensitive : bool;
  mutable state : run_state;
  mutable kernel_time_ns : float;
  mutable user_time_ns : float;
  mutable faults : int;
}

(** [create ?pid ~name ~aspace ~kstack ()] — an explicit [pid]
    bypasses the global allocator entirely; deterministic harnesses
    pass one (via [System.boot ~pid_base]) because pids feed the
    per-page ESSIV IVs.  Without it the pid comes off the OS-process
    global atomic counter, which never collides across domains but
    does interleave. *)
val create : ?pid:int -> name:string -> aspace:Address_space.t -> kstack:int -> unit -> t

val mark_sensitive : t -> unit
val pp : Format.formatter -> t -> unit
