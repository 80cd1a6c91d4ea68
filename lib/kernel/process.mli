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

(** [create ~pid ~name ~aspace ~kstack ()] — the pid comes from the
    owning [System]'s pid space; it feeds the per-page ESSIV IVs. *)
val create : pid:int -> name:string -> aspace:Address_space.t -> kstack:int -> unit -> t

val mark_sensitive : t -> unit
val pp : Format.formatter -> t -> unit
