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
  mutable next_pid : int;  (** the pid the next [spawn] gets *)
}

(** [boot ?seed ?dram_size ?pid_base platform] creates a machine,
    carves the DRAM layout (kernel reserve | general frames |
    locked-cache arena) and starts the kernel services.  Every system
    owns its pid space: successive spawns get [pid_base] (default 1),
    [pid_base + 1], …, untouched by any other system or domain.  Pids
    feed the per-page ESSIV IVs, so a system's ciphertext never
    depends on what else the OS process ran; sharded harnesses give
    each shard a disjoint base. *)
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
