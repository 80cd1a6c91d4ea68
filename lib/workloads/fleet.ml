(** Multi-tenant fleet churn: N sensitive processes × M pages driven
    through repeated suspend / service-wake / unlock cycles with
    dm-crypt I/O interleaved while locked.

    The single-app experiments (Figs 2-5) measure one process per
    cycle; this workload is the stress case the batched pipeline is
    for — at lock time the walk yields hundreds of (pid, vpn, frame)
    triples spread across many address spaces, so gathering and
    frame-sorting them pays for itself.  Host wall-clock throughput
    ([lock_pages_per_s]) is the headline number; simulated outputs
    (clock, energy, faults) are pipeline-independent and reported for
    corroboration.

    {b Tenant classes.}  The fleet is deliberately heterogeneous so
    tail latency means something: by spawn index, every 4th process is
    a {e large} tenant (2×M pages plus a DMA region — camera/radio
    style), every [4k+3]rd a {e small} one (M/2 pages), the rest
    {e medium} (M pages).  After each unlock, every tenant's first
    page is faulted in, in spawn order, and the simulated
    unlock-to-first-touch latency is sampled per tenant — so the
    distribution captures queueing behind earlier tenants' faults,
    which is exactly what the per-class p99/p999 SLOs watch.

    {b Sharding.}  [run_sharded] runs the tenants through the {!Shard}
    executor: contiguous shards, each owning a private [System]
    (machine, clock, energy meter), trace recorder, metrics registry,
    fault-injector session, PRNG seed and pid range.  The partition
    depends only on [(procs, shards)] — never on how many domains
    execute it — so the merged outputs are bit-identical across domain
    counts.  [run] is the one-shard plan.  See DESIGN.md §13. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

type config = {
  procs : int;  (** N sensitive processes *)
  pages_per_proc : int;  (** M pages in a medium tenant's main region *)
  cycles : int;  (** lock → service wakes → unlock rounds *)
  touch_fraction : float;  (** fraction of pages faulted in after unlock *)
  service_wakes : int;  (** background timer wakes per locked period *)
  io_sectors : int;  (** dm-crypt sectors written+read per wake *)
  backend : Sentry.backend;  (** protection backend driving every slice *)
}

let default =
  {
    procs = 8;
    pages_per_proc = 16;
    cycles = 3;
    touch_fraction = 0.25;
    service_wakes = 1;
    io_sectors = 8;
    backend = Sentry.Batched;
  }

let backend_label = Backend.kind_name

(* Tenant-class assignment by spawn index.  Every 4th process is large
   (and carries the DMA region); every 4k+3rd small; the rest medium.
   Indices are always global (fleet-wide), so a shard spawning tenants
   [first .. first+count-1] builds exactly the same tenants a
   one-shard run would. *)
let tenant_class ~index =
  match index mod 4 with 0 -> "large" | 3 -> "small" | _ -> "medium"

let main_pages_for ~index ~pages_per_proc =
  match index mod 4 with
  | 0 -> 2 * pages_per_proc
  | 3 -> max 1 (pages_per_proc / 2)
  | _ -> pages_per_proc

(* Large tenants also carry a DMA region (camera/radio-style), sized
   at a quarter of the configured medium region, so eager decryption
   and the per-region coherence sweep stay on the unlock path. *)
let dma_pages_for ~index ~pages_per_proc =
  if index mod 4 = 0 then max 1 (pages_per_proc / 4) else 0

type latency = {
  count : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
}

type stats = {
  config : config;
  fleet_pages : int;  (** resident pages across the fleet (incl. DMA) *)
  pages_locked : int;  (** summed over all lock passes *)
  pages_unlocked_eager : int;  (** DMA pages decrypted eagerly *)
  pages_faulted : int;  (** lazy decrypt faults served *)
  service_wakes_run : int;
  io_sectors_done : int;  (** dm-crypt sectors written + read *)
  lock_wall_s : float;  (** host time inside the lock passes *)
  unlock_wall_s : float;  (** host time inside the unlock passes *)
  lock_pages_per_s : float;  (** pages_locked / lock_wall_s (host) *)
  unlock_to_first_touch_ns : float;
      (** simulated ns from unlock start to a tenant's first page
          being readable, averaged over every tenant and cycle *)
  first_touch_samples : (string * float) list;
      (** every (tenant_class, unlock_to_first_touch_ns) sample, in
          service order — the raw distribution behind
          [latency_by_class], and what sharded runs feed per-shard
          metrics registries *)
  latency_by_class : (string * latency) list;
      (** per-tenant-class latency summary, sorted by class *)
  sim_elapsed_ns : float;  (** simulated time the whole run consumed *)
  energy_j : float;  (** metered AES energy over the run *)
  dram_resident_bytes : int;
      (** simulated-DRAM bytes the run made resident on the host
          ([Dram.resident_bytes] at the end), summed over shards *)
}

(** End-of-run digests of a tenant's crypto-relevant state: the ESSIV
    IV stream over every (pid, vpn) page and the page-table entries
    (frame, present/encrypted/young/writable).  Pids feed the IVs, so
    these digests catch any drift in the pid assignment or page-table
    outcome between execution strategies. *)
type fingerprint = {
  tenant_index : int;  (** global spawn index *)
  tenant_pid : int;
  tenant_cls : string;
  essiv_md5 : string;  (** digest over AES_K(SHA256(key))(pid<<24 ^ vpn) per page *)
  pte_md5 : string;  (** digest over (pid, vpn, frame, present, encrypted, young, writable) *)
}

(* Fingerprinting reads PTEs and derives IVs through [Page_crypt.iv]
   (pure host-side AES — no simulated clock or energy side effects),
   so it never perturbs the run it measures. *)
let fingerprint_tenant page_crypt ~index (proc, _region, cls) =
  let essiv = Buffer.create 1024 and ptes = Buffer.create 1024 in
  let pid = proc.Process.pid in
  List.iter
    (fun (r : Address_space.region) ->
      List.iter
        (fun (vpn, (pte : Page_table.pte)) ->
          Buffer.add_bytes essiv (Page_crypt.iv page_crypt ~pid ~vpn);
          Buffer.add_string ptes
            (Printf.sprintf "%d:%d:%d:%b:%b:%b:%b;" pid vpn pte.Page_table.frame
               pte.Page_table.present pte.Page_table.encrypted pte.Page_table.young
               pte.Page_table.writable))
        (Address_space.region_ptes proc.Process.aspace r))
    (Address_space.regions proc.Process.aspace);
  {
    tenant_index = index;
    tenant_pid = pid;
    tenant_cls = cls;
    essiv_md5 = Digest.to_hex (Digest.string (Buffer.contents essiv));
    pte_md5 = Digest.to_hex (Digest.string (Buffer.contents ptes));
  }

(* Spawn tenants [first .. first+count-1] (global indices: names,
   classes and region sizes all come from the global index, so a
   shard's tenants are identical to a one-shard run's). *)
let spawn_slice system sentry (cfg : config) ~first ~count =
  List.init count (fun j ->
      let i = first + j in
      let name = Printf.sprintf "fleet%03d" i in
      let main_pages = main_pages_for ~index:i ~pages_per_proc:cfg.pages_per_proc in
      let proc = System.spawn system ~name ~bytes:(main_pages * Page.size) in
      let aspace = proc.Process.aspace in
      let main_region =
        match Address_space.find_region aspace ~name:"main" with
        | Some r -> r
        | None -> assert false
      in
      let dma_pages = dma_pages_for ~index:i ~pages_per_proc:cfg.pages_per_proc in
      let regions =
        if dma_pages = 0 then [ main_region ]
        else
          [
            main_region;
            Address_space.map_region aspace ~name:"dma" ~kind:Address_space.Dma
              ~bytes:(dma_pages * Page.size);
          ]
      in
      let pattern = Bytes.of_string (name ^ "-secret!") in
      List.iter (fun r -> System.fill_region system proc r pattern) regions;
      Sentry.mark_sensitive sentry proc;
      (proc, main_region, tenant_class ~index:i))

(* The locked-period background service: journal-style dm-crypt I/O
   (write then read back [io_sectors] sectors).  Runs under
   [Suspend.background_service_cycle], i.e. with the fleet's memory
   still ciphertext — dm-crypt resolves AES_On_SoC from the registry,
   so the I/O never needs the fleet's pages. *)
let service_io dm ~io_sectors ~wake =
  let sector = Bytes.create Block_dev.sector_size in
  for s = 0 to io_sectors - 1 do
    Bytes.fill sector 0 Block_dev.sector_size (Char.chr ((wake + s) land 0xff));
    Dm_crypt.write_sector dm s sector
  done;
  for s = 0 to io_sectors - 1 do
    ignore (Dm_crypt.read_sector dm s)
  done;
  2 * io_sectors

(** Record first-touch samples into a metrics registry under
    [workloads.fleet/unlock_to_first_touch_ns{backend=…,tenant_class=…}]
    — the labeled-histogram fan-in a sharded fleet run merges.  Kept
    separate from [run] so per-shard registries can be fed from raw
    samples. *)
let record_latencies metrics ~backend samples =
  List.iter
    (fun (cls, ns) ->
      Sentry_obs.Metrics.observe
        (Sentry_obs.Metrics.histogram metrics ~subsystem:"workloads.fleet"
           ~labels:[ ("backend", backend_label backend); ("tenant_class", cls) ]
           "unlock_to_first_touch_ns")
        ns)
    samples

let summarize_by_class samples =
  let classes = List.sort_uniq String.compare (List.map fst samples) in
  List.map
    (fun cls ->
      let xs =
        Array.of_list (List.filter_map (fun (c, v) -> if c = cls then Some v else None) samples)
      in
      let s = Stats.summarize xs in
      ( cls,
        {
          count = s.Stats.n;
          mean_ns = s.Stats.mean;
          p50_ns = Stats.percentile 50.0 xs;
          p99_ns = Stats.percentile 99.0 xs;
          p999_ns = Stats.percentile 99.9 xs;
          max_ns = s.Stats.max;
        } ))
    classes

let validate (cfg : config) =
  if cfg.procs <= 0 || cfg.pages_per_proc <= 0 || cfg.cycles <= 0 then
    invalid_arg "Fleet.run: procs, pages_per_proc and cycles must be positive"

(* One shard's worth of work: boot a private system owning pids
   [pid_base ..], spawn tenants [first .. first+count-1], drive the
   cycles, and digest every tenant's crypto state.  Everything this
   touches — machine, clock, energy meter, PRNG, frames — belongs to
   the private [System], so concurrent slices share no simulated state
   whatsoever. *)
let run_slice ~platform (cfg : config) ~seed ~pid_base ~first ~count ~metrics =
  let system = System.boot ~seed ~pid_base platform in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default platform) in
  Sentry.set_backend sentry cfg.backend;
  let fleet = spawn_slice system sentry cfg ~first ~count in
  let susp = Suspend.create sentry in
  let dev =
    Block_dev.create machine ~kind:Block_dev.Ramdisk
      ~size:(max 1 cfg.io_sectors * Block_dev.sector_size)
  in
  let dm =
    let key = Prng.bytes (Machine.prng machine) 16 in
    Dm_crypt.create ~api:system.System.crypto_api ~key (Block_dev.target dev)
  in
  let energy0 = Energy.category (Machine.energy machine) "aes" in
  let sim0 = System.now system in
  let pages_locked = ref 0
  and eager = ref 0
  and faulted = ref 0
  and wakes = ref 0
  and io_done = ref 0
  and lock_wall = ref 0.0
  and unlock_wall = ref 0.0
  and samples = ref [] in
  for cycle = 1 to cfg.cycles do
    (* One enter/exit span per cycle, so each cycle's lock/unlock/fault
       trees nest under it in the flamegraph.  [traced] is captured
       once per cycle so the pair cannot tear.  The ambient recorder is
       domain-local: a slice on a pool worker sees the recorder its
       shard installed, never the main domain's. *)
    let traced = Sentry_obs.Trace.on () in
    if traced then
      Sentry_obs.Trace.enter_span ~ts:(System.now system) ~cat:Sentry_obs.Event.Sched
        ~subsystem:"workloads.fleet" "fleet-cycle";
    (* Lock the whole fleet; host wall-clock brackets just the pass. *)
    let t0 = Unix.gettimeofday () in
    (match Suspend.suspend susp with
    | Some s -> pages_locked := !pages_locked + s.Encrypt_on_lock.pages_encrypted
    | None -> ());
    lock_wall := !lock_wall +. (Unix.gettimeofday () -. t0);
    (* Background churn while locked: timer wakes running dm-crypt
       I/O, the fleet's memory staying ciphertext throughout. *)
    for wake = 1 to cfg.service_wakes do
      io_done :=
        !io_done
        + Suspend.background_service_cycle susp ~slept_s:60.0 (fun () ->
              service_io dm ~io_sectors:cfg.io_sectors ~wake);
      incr wakes
    done;
    (* Unlock, then fault in every tenant's first page in spawn order,
       sampling simulated unlock-to-first-touch per tenant.  Later
       tenants queue behind earlier tenants' faults — the tail the
       per-class SLOs watch.  The slept interval is discounted — wake
       advances the clock by exactly [slept_s] before the unlock work
       starts. *)
    let slept_s = 30.0 in
    let sim_unlock = System.now system +. (slept_s *. Units.s) in
    let t1 = Unix.gettimeofday () in
    (match Suspend.wake_and_unlock susp ~pin:(Sentry.config sentry).Config.pin ~slept_s with
    | Ok s -> eager := !eager + s.Decrypt_on_unlock.dma_pages_eager
    | Error _ -> failwith "Fleet.run: unlock failed");
    List.iter
      (fun (proc, region, cls) ->
        Vm.touch system.System.vm proc ~vaddr:region.Address_space.vstart;
        incr faulted;
        samples := (cls, System.now system -. sim_unlock) :: !samples)
      fleet;
    unlock_wall := !unlock_wall +. (Unix.gettimeofday () -. t1);
    (* Resume churn: each process faults in its touch fraction (its
       first page is already in from the measurement pass). *)
    List.iter
      (fun (proc, region, _) ->
        let touch_pages =
          int_of_float (cfg.touch_fraction *. float_of_int region.Address_space.npages)
        in
        for p = 1 to touch_pages - 1 do
          Vm.touch system.System.vm proc
            ~vaddr:(region.Address_space.vstart + (p * Page.size));
          incr faulted
        done)
      fleet;
    if traced then
      Sentry_obs.Trace.exit_span ~ts:(System.now system)
        ~args:[ ("cycle", Sentry_obs.Event.Int cycle) ]
        ()
  done;
  let fleet_pages =
    List.fold_left
      (fun acc (proc, _, _) ->
        List.fold_left
          (fun acc (r : Address_space.region) -> acc + r.Address_space.npages)
          acc
          (Address_space.regions proc.Process.aspace))
      0 fleet
  in
  let samples = List.rev !samples in
  record_latencies metrics ~backend:cfg.backend samples;
  let fingerprints =
    List.mapi (fun j t -> fingerprint_tenant (Sentry.page_crypt sentry) ~index:(first + j) t) fleet
  in
  ( {
      config = { cfg with procs = count };
      fleet_pages;
      pages_locked = !pages_locked;
      pages_unlocked_eager = !eager;
      pages_faulted = !faulted;
      service_wakes_run = !wakes;
      io_sectors_done = !io_done;
      lock_wall_s = !lock_wall;
      unlock_wall_s = !unlock_wall;
      lock_pages_per_s =
        (if !lock_wall > 0.0 then float_of_int !pages_locked /. !lock_wall else 0.0);
      unlock_to_first_touch_ns =
        (match samples with
        | [] -> 0.0
        | _ -> Stats.mean (Array.of_list (List.map snd samples)));
      first_touch_samples = samples;
      latency_by_class = summarize_by_class samples;
      sim_elapsed_ns = System.now system -. sim0;
      energy_j = Energy.category (Machine.energy machine) "aes" -. energy0;
      dram_resident_bytes = Dram.resident_bytes (Machine.dram machine);
    },
    fingerprints )

(* ------------------------------ sharding --------------------------- *)

type sharded = {
  merged : stats;
  fingerprints : fingerprint list;  (** concatenated in tenant order *)
  shards : (stats * fingerprint list) Shard.t;
}

let default_shards = Shard.default_shards
let shard_plan = Shard.plan

(* Deterministic merge, folded in shard order.  A single shard's stats
   already are the merge (its config is [cfg] and its summaries are
   over the same samples), so the one-shard plan skips the refold. *)
let merge (cfg : config) = function
  | [ s ] -> { s with config = cfg }
  | stats_list ->
    let samples = List.concat_map (fun s -> s.first_touch_samples) stats_list in
    let sum f = List.fold_left (fun a s -> a + f s) 0 stats_list in
    let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 stats_list in
    let pages_locked = sum (fun s -> s.pages_locked) and lock_wall = sumf (fun s -> s.lock_wall_s) in
    {
      config = cfg;
      fleet_pages = sum (fun s -> s.fleet_pages);
      pages_locked;
      pages_unlocked_eager = sum (fun s -> s.pages_unlocked_eager);
      pages_faulted = sum (fun s -> s.pages_faulted);
      service_wakes_run = sum (fun s -> s.service_wakes_run);
      io_sectors_done = sum (fun s -> s.io_sectors_done);
      (* Walls are summed per-shard pass time, so lock_pages_per_s is the
         lock walk's own rate: boot, spawn, unlock and pool overhead stay
         out of it whatever the domain count. *)
      lock_wall_s = lock_wall;
      unlock_wall_s = sumf (fun s -> s.unlock_wall_s);
      lock_pages_per_s = (if lock_wall > 0.0 then float_of_int pages_locked /. lock_wall else 0.0);
      unlock_to_first_touch_ns =
        (match samples with [] -> 0.0 | _ -> Stats.mean (Array.of_list (List.map snd samples)));
      first_touch_samples = samples;
      latency_by_class = summarize_by_class samples;
      (* Shards run concurrently in simulated time too — the fleet's
         elapsed simulated time is the slowest shard's, not the sum. *)
      sim_elapsed_ns = List.fold_left (fun a s -> Float.max a s.sim_elapsed_ns) 0.0 stats_list;
      energy_j = sumf (fun s -> s.energy_j);
      dram_resident_bytes = sum (fun s -> s.dram_resident_bytes);
    }

let run_sharded ?(platform = `Tegra3) ?(seed = 7) ?shards ?faults ~domains (cfg : config) =
  validate cfg;
  let shards =
    Shard.run ?shards ?faults ~seed ~domains ~procs:cfg.procs
      (run_slice ~platform cfg)
  in
  {
    merged = merge cfg (List.map fst shards.Shard.results);
    fingerprints = List.concat_map snd shards.Shard.results;
    shards;
  }

let run ?platform ?seed ?metrics (cfg : config) =
  let s = (run_sharded ?platform ?seed ~shards:1 ~domains:1 cfg).merged in
  Option.iter (fun m -> record_latencies m ~backend:cfg.backend s.first_touch_samples) metrics;
  s

let pp ppf (s : stats) =
  Fmt.pf ppf
    "fleet: %d procs x %d pages (%s)@\n\
    \  pages locked        %d in %.1f ms host (%.0f pages/s)@\n\
    \  eager DMA pages     %d@\n\
    \  lazy faults served  %d@\n\
    \  service wakes       %d (%d dm-crypt sectors)@\n\
    \  unlock->first touch %.1f us simulated (mean over %d tenant samples)"
    s.config.procs s.config.pages_per_proc
    (backend_label s.config.backend)
    s.pages_locked (s.lock_wall_s *. 1e3) s.lock_pages_per_s
    s.pages_unlocked_eager s.pages_faulted s.service_wakes_run
    s.io_sectors_done
    (s.unlock_to_first_touch_ns /. 1e3)
    (List.length s.first_touch_samples);
  List.iter
    (fun (cls, l) ->
      Fmt.pf ppf "@\n  %-7s n=%-3d p50 %.1f us  p99 %.1f us  p999 %.1f us  max %.1f us" cls
        l.count (l.p50_ns /. 1e3) (l.p99_ns /. 1e3) (l.p999_ns /. 1e3) (l.max_ns /. 1e3))
    s.latency_by_class;
  Fmt.pf ppf "@\n  simulated time      %.2f ms, AES energy %.3f J" (s.sim_elapsed_ns /. 1e6)
    s.energy_j

let pp_sharded ppf (s : sharded) =
  Fmt.pf ppf "fleet (sharded): %a"
    (Shard.pp (fun ppf ((st : stats), _) -> Fmt.pf ppf "%d pages locked" st.pages_locked))
    s.shards;
  pp ppf s.merged
