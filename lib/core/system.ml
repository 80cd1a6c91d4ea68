(** The booted software stack: machine + kernel services + crypto
    registry.  Everything above (Sentry, workloads, experiments)
    operates on a [t].

    DRAM layout carved at boot:
    {v
    [ kernel reserved | general frames ............ | locked-cache arena ]
    v}
    The arena (way-aligned, way-sized slots) is only used when the
    platform can lock cache ways; it is excluded from the frame
    allocator either way so layout stays identical across configs. *)

open Sentry_soc

type t = {
  machine : Machine.t;
  frames : Sentry_kernel.Frame_alloc.t;
  vm : Sentry_kernel.Vm.t;
  sched : Sentry_kernel.Sched.t;
  zerod : Sentry_kernel.Zerod.t;
  crypto_api : Sentry_crypto.Crypto_api.t;
  arena_base : int;
  mutable procs : Sentry_kernel.Process.t list;
  mutable next_pid : int; (* this system's pid space: the next spawn's pid *)
}

let arena_ways = 7 (* slots reserved; locking budget is configured lower *)

let boot ?(seed = 0x5e17) ?dram_size ?(pid_base = 1) (platform : Config.platform) =
  let conf =
    match platform with
    | `Tegra3 -> Machine.tegra3 ?dram_size ()
    | `Nexus4 -> Machine.nexus4 ?dram_size ()
    | `Future -> Machine.future ?dram_size ()
  in
  let machine = Machine.create ~seed conf in
  let dram = Machine.dram_region machine in
  let way_size = Pl310.way_size (Machine.l2 machine) in
  let arena_size = arena_ways * way_size in
  let arena_base =
    (* top of DRAM, way-aligned *)
    (Memmap.limit dram - arena_size) / way_size * way_size
  in
  let kernel_reserved = 2 * Sentry_util.Units.mib in
  let frames_region =
    Memmap.region ~base:(dram.Memmap.base + kernel_reserved)
      ~size:(arena_base - dram.Memmap.base - kernel_reserved)
  in
  let frames = Sentry_kernel.Frame_alloc.create machine ~region:frames_region in
  {
    machine;
    frames;
    vm = Sentry_kernel.Vm.create machine;
    sched = Sentry_kernel.Sched.create machine;
    zerod = Sentry_kernel.Zerod.create machine ~frames;
    crypto_api = Sentry_crypto.Crypto_api.create ();
    arena_base;
    procs = [];
    next_pid = pid_base;
  }

let machine t = t.machine
let now t = Machine.now t.machine

(** [spawn t ~name ~bytes] creates a process with one [Normal] region
    of [bytes] and admits it to the scheduler. *)
let spawn ?(kind = Sentry_kernel.Address_space.Normal) t ~name ~bytes =
  let aspace = Sentry_kernel.Address_space.create t.machine ~frames:t.frames in
  ignore (Sentry_kernel.Address_space.map_region aspace ~name:"main" ~kind ~bytes);
  let kstack = Sentry_kernel.Frame_alloc.alloc t.frames in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc = Sentry_kernel.Process.create ~pid ~name ~aspace ~kstack () in
  t.procs <- proc :: t.procs;
  Sentry_kernel.Sched.admit t.sched proc;
  proc

let kill t proc =
  t.procs <- List.filter (fun p -> p != proc) t.procs;
  List.iter
    (fun r -> Sentry_kernel.Address_space.unmap_region proc.Sentry_kernel.Process.aspace r)
    (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace);
  Sentry_kernel.Frame_alloc.free t.frames proc.Sentry_kernel.Process.kstack

(** Fill a process region with recognisable content via the MMU. *)
let fill_region t proc (region : Sentry_kernel.Address_space.region) pattern =
  let bytes = Sentry_kernel.Address_space.region_bytes region in
  let data = Bytes.create bytes in
  Sentry_util.Bytes_util.fill_pattern data pattern;
  Sentry_kernel.Vm.write t.vm proc ~vaddr:region.Sentry_kernel.Address_space.vstart data
