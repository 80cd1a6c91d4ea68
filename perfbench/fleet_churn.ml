(** fleet-churn: [Fleet.run_sharded], 64 tenants in 16 shards of 4.
    Each call boots 16 private 32 MiB systems, so bring-up, spawn and
    pool scheduling weigh as much as the lock walk itself.

    Calls run on a one-domain pool: the benchmark runs pinned to one
    CPU (see run.py), where a second domain could only take turns.
    The two-domain call still runs once per run, untimed, and its
    outputs must match.

    The traced call is a replica of [Fleet.run_sharded]'s shard slice
    built from public functions only, with a span around each layer
    call; it must reproduce the entry point's fingerprints and
    first-touch samples bit for bit. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core
module Fleet = Sentry_workloads.Fleet

let domains = 1
let cfg = { Fleet.default with procs = 64; pages_per_proc = 16; cycles = 3 }
let plan = Fleet.shard_plan ~procs:cfg.procs ~shards:(Fleet.default_shards ~procs:cfg.procs)

(* [Fleet]'s per-shard seed spread. *)
let seed_for ~seed s = seed + (s * 7919)

(* The simulated outputs a call is checked on. *)
type result = {
  fingerprints : Fleet.fingerprint list;
  samples : (string * float) list;
  counts : int list;  (** fleet pages, locked, eager, faulted, wakes, io sectors *)
  sim : float list;  (** slowest shard's simulated ns, AES energy *)
}

let outcome r =
  let fp (f : Fleet.fingerprint) =
    Printf.sprintf "%d:%d:%s:%s:%s" f.tenant_index f.tenant_pid f.tenant_cls f.essiv_md5 f.pte_md5
  in
  let text =
    String.concat "|"
      [
        String.concat ";" (List.map fp r.fingerprints);
        String.concat ";" (List.map (fun (c, v) -> Printf.sprintf "%s=%h" c v) r.samples);
        String.concat "," (List.map string_of_int r.counts);
        Workload.floats r.sim;
      ]
  in
  let pages_locked = List.nth r.counts 1 in
  let p99 = Stats.percentile 99.0 (Array.of_list (List.map snd r.samples)) in
  {
    Workload.key = "fleet";
    items = pages_locked;
    attempted = 1;
    failed = 0;
    digest = Workload.digest_of_string text;
    sim = [ ("sim_fleet_u2ft_p99_ms", p99 /. 1e6) ];
  }

let entry_point ~seed ~domains =
  let sh = Fleet.run_sharded ~seed ~domains cfg in
  let m = sh.merged in
  outcome
    {
      fingerprints = sh.fingerprints;
      samples = m.first_touch_samples;
      counts =
        [
          m.fleet_pages;
          m.pages_locked;
          m.pages_unlocked_eager;
          m.pages_faulted;
          m.service_wakes_run;
          m.io_sectors_done;
        ];
      sim = [ m.sim_elapsed_ns; m.energy_j ];
    }

(* ------------------------------ replica ---------------------------- *)

(** A tenant as [Fleet] and [Server] spawn it: a main region sized by
    the tenant's class plus, for large tenants, a DMA region; both
    filled with a pattern from its name, and marked sensitive. *)
let spawn_tenant system sentry ~name ~index ~pages_per_proc =
  let main_pages = Fleet.main_pages_for ~index ~pages_per_proc in
  let proc = System.spawn system ~name ~bytes:(main_pages * Page.size) in
  let aspace = proc.Process.aspace in
  let main_region = Option.get (Address_space.find_region aspace ~name:"main") in
  let dma_pages = Fleet.dma_pages_for ~index ~pages_per_proc in
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
  (proc, main_region)

let spawn system sentry ~first ~count =
  List.init count (fun j ->
      let index = first + j in
      let proc, region =
        spawn_tenant system sentry ~name:(Printf.sprintf "fleet%03d" index) ~index
          ~pages_per_proc:cfg.pages_per_proc
      in
      (proc, region, Fleet.tenant_class ~index))

let pages_of proc =
  List.fold_left
    (fun acc (r : Address_space.region) -> acc + r.npages)
    0
    (Address_space.regions proc.Process.aspace)

(** Boot, install and spawn one shard: the per-shard bring-up. *)
let bring ctx ~seed ~first ~count =
  let system =
    Span.run ctx "core.boot" (fun _ -> System.boot ~seed ~pid_base:(first + 1) `Tegra3)
  in
  let sentry =
    Span.run ctx "core.install" (fun _ ->
        let s = Sentry.install system (Config.default `Tegra3) in
        Sentry.set_backend s cfg.backend;
        s)
  in
  let tenants =
    Span.run ctx "core.spawn_fill"
      ~items:(List.fold_left (fun a (proc, _, _) -> a + pages_of proc) 0)
      (fun _ -> spawn system sentry ~first ~count)
  in
  (system, sentry, tenants)

let service_io dm ~wake =
  let sector = Bytes.create Block_dev.sector_size in
  for s = 0 to cfg.io_sectors - 1 do
    Bytes.fill sector 0 Block_dev.sector_size (Char.chr ((wake + s) land 0xff));
    Dm_crypt.write_sector dm s sector
  done;
  for s = 0 to cfg.io_sectors - 1 do
    ignore (Dm_crypt.read_sector dm s)
  done;
  2 * cfg.io_sectors

let fingerprint page_crypt ~index (proc, _, cls) =
  let essiv = Buffer.create 1024 and ptes = Buffer.create 1024 in
  let pid = proc.Process.pid in
  List.iter
    (fun (r : Address_space.region) ->
      List.iter
        (fun (vpn, (pte : Page_table.pte)) ->
          Buffer.add_bytes essiv (Page_crypt.iv page_crypt ~pid ~vpn);
          Buffer.add_string ptes
            (Printf.sprintf "%d:%d:%d:%b:%b:%b:%b;" pid vpn pte.frame pte.present pte.encrypted
               pte.young pte.writable))
        (Address_space.region_ptes proc.Process.aspace r))
    (Address_space.regions proc.Process.aspace);
  {
    Fleet.tenant_index = index;
    tenant_pid = pid;
    tenant_cls = cls;
    essiv_md5 = Digest.to_hex (Digest.string (Buffer.contents essiv));
    pte_md5 = Digest.to_hex (Digest.string (Buffer.contents ptes));
  }

let slice ctx ~seed ~first ~count =
  Span.run ctx "bench.shard" (fun ctx ->
      let system, sentry, tenants = bring ctx ~seed ~first ~count in
      let machine = System.machine system in
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
      let pin = (Sentry.config sentry).Config.pin in
      let locked = ref 0 and eager = ref 0 and faulted = ref 0 and wakes = ref 0 in
      let io = ref 0 and samples = ref [] in
      for _cycle = 1 to cfg.cycles do
        (match
           Span.run ctx "core.lock"
             ~items:(function Some s -> s.Encrypt_on_lock.pages_encrypted | None -> 0)
             (fun _ -> Suspend.suspend susp)
         with
        | Some s -> locked := !locked + s.Encrypt_on_lock.pages_encrypted
        | None -> ());
        for wake = 1 to cfg.service_wakes do
          io :=
            !io
            + Span.run ctx "core.service" (fun ctx ->
                  Suspend.background_service_cycle susp ~slept_s:60.0 (fun () ->
                      Span.run ctx "kernel.dmcrypt_io" ~items:Fun.id (fun _ ->
                          service_io dm ~wake)));
          incr wakes
        done;
        let slept_s = 30.0 in
        let sim_unlock = System.now system +. (slept_s *. Units.s) in
        (match Span.run ctx "core.unlock" (fun _ -> Suspend.wake_and_unlock susp ~pin ~slept_s) with
        | Ok s -> eager := !eager + s.Decrypt_on_unlock.dma_pages_eager
        | Error _ -> failwith "fleet replica: unlock failed");
        Span.run ctx "kernel.touch" ~items:(fun () -> count) (fun _ ->
            List.iter
              (fun (proc, (region : Address_space.region), cls) ->
                Vm.touch system.System.vm proc ~vaddr:region.vstart;
                incr faulted;
                samples := (cls, System.now system -. sim_unlock) :: !samples)
              tenants);
        ignore @@ Span.run ctx "kernel.touch" ~items:Fun.id (fun _ ->
            let f0 = !faulted in
            List.iter
              (fun (proc, (region : Address_space.region), _) ->
                let touch_pages = int_of_float (cfg.touch_fraction *. float_of_int region.npages) in
                for p = 1 to touch_pages - 1 do
                  Vm.touch system.System.vm proc ~vaddr:(region.vstart + (p * Page.size));
                  incr faulted
                done)
              tenants;
            !faulted - f0)
      done;
      let fingerprints =
        Span.run ctx "workloads.fingerprint" (fun _ ->
            List.mapi
              (fun j t -> fingerprint (Sentry.page_crypt sentry) ~index:(first + j) t)
              tenants)
      in
      {
        fingerprints;
        samples = List.rev !samples;
        counts =
          [
            List.fold_left (fun a (proc, _, _) -> a + pages_of proc) 0 tenants;
            !locked;
            !eager;
            !faulted;
            !wakes;
            !io;
          ];
        sim =
          [
            System.now system -. sim0;
            Energy.category (Machine.energy machine) "aes" -. energy0;
          ];
      })

(* Fold shard results in shard order, as [Fleet.run_sharded] does. *)
let merge shards =
  let col i = List.map (fun r -> List.nth r.counts i) shards in
  let sim i = List.map (fun r -> List.nth r.sim i) shards in
  {
    fingerprints = List.concat_map (fun r -> r.fingerprints) shards;
    samples = List.concat_map (fun r -> r.samples) shards;
    counts = List.init 6 (fun i -> List.fold_left ( + ) 0 (col i));
    sim = [ List.fold_left Float.max 0.0 (sim 0); List.fold_left ( +. ) 0.0 (sim 1) ];
  }

let traced ~seed ctx _ =
  let shards =
    Span.run ctx "util.dpool" ~items:List.length (fun ctx ->
        Dpool.run ~domains
          (List.mapi
             (fun s (first, count) () -> slice ctx ~seed:(seed_for ~seed s) ~first ~count)
             plan))
  in
  outcome (merge shards)

(* Simulated-output digest of [Fleet.run_sharded] at seed 7. *)
let pinned_seed7 = "094d4c82cd1141e7581f194ea8308d31"

let make ~seed =
  let first, count = List.hd plan in
  {
    Workload.item = "pages locked";
    period = 1;
    bring_up = (fun ctx -> ignore (bring ctx ~seed:(seed_for ~seed 0) ~first ~count));
    call = (fun _ -> entry_point ~seed ~domains);
    traced = traced ~seed;
    two_domains = Some (fun () -> entry_point ~seed ~domains:2);
    pin = (fun _ -> if seed = 7 then Some pinned_seed7 else None);
  }
