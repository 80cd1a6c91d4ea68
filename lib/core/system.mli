(** The booted software stack: machine, kernel services and the
    crypto registry.  Everything above (Sentry itself, workloads,
    experiments) operates on a [t]. *)

open Sentry_soc

type t = {
  machine : Machine.t;
  frames : Sentry_kernel.Frame_alloc.t;
  vm : Sentry_kernel.Vm.t;
  sched : Sentry_kernel.Sched.t;
  zerod : Sentry_kernel.Zerod.t;
  crypto_api : Sentry_crypto.Crypto_api.t;
  arena_base : int;
      (** way-aligned top-of-DRAM region reserved for [Locked_cache] *)
  mutable procs : Sentry_kernel.Process.t list;
  mutable next_pid : int option;
      (** [Some n] when this system owns its pid space ([boot
          ~pid_base]): the next [spawn] gets pid [n].  [None]: pids
          come off the process-global allocator. *)
}

(** [boot ?seed ?dram_size ?pid_base platform] creates a machine,
    carves the DRAM layout (kernel reserve | general frames |
    locked-cache arena) and starts the kernel services.  With
    [~pid_base:n] the system owns a private pid space starting at [n]
    (successive spawns get [n], [n+1], …, untouched by any other
    system or domain) — pids feed the per-page ESSIV IVs, so sharded
    harnesses use disjoint deterministic bases per shard.  Without it,
    pids come off the process-global allocator as before. *)
val boot : ?seed:int -> ?dram_size:int -> ?pid_base:int -> Config.platform -> t

val machine : t -> Machine.t

(** Current simulated time (ns). *)
val now : t -> float

(** [spawn t ~name ~bytes] creates a process with one region of
    [bytes] and admits it to the scheduler. *)
val spawn :
  ?kind:Sentry_kernel.Address_space.kind ->
  t ->
  name:string ->
  bytes:int ->
  Sentry_kernel.Process.t

(** Tear a process down, freeing its frames (onto the dirty list). *)
val kill : t -> Sentry_kernel.Process.t -> unit

(** Fill a process region with a repeating pattern via the MMU. *)
val fill_region :
  t -> Sentry_kernel.Process.t -> Sentry_kernel.Address_space.region -> Bytes.t -> unit
