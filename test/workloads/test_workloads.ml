open Sentry_util
open Sentry_kernel
open Sentry_core
open Sentry_workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------- App ------------------------------ *)

let small_profile =
  {
    App.app_name = "tiny";
    footprint_mb = 1.0;
    dma_mb = 0.25;
    resume_mb = 0.25;
    runtime_mb = 0.25;
    refault_factor = 1.0;
    script_s = 1.0;
  }

let test_app_launch_regions () =
  let system = System.boot `Tegra3 ~seed:1 in
  let app = App.launch system small_profile in
  let regions = Address_space.regions app.App.proc.Process.aspace in
  checki "two regions" 2 (List.length regions);
  checkb "dma region" true
    (List.exists (fun r -> r.Address_space.kind = Address_space.Dma) regions);
  checki "total bytes" Units.mib (Address_space.total_bytes app.App.proc.Process.aspace)

let test_app_cycle_overhead_positive () =
  let system = System.boot `Tegra3 ~seed:2 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let app = App.launch system small_profile in
  Sentry.mark_sensitive sentry app.App.proc;
  let stats = Sentry.lock sentry in
  checki "footprint encrypted" 256 stats.Encrypt_on_lock.pages_encrypted;
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  App.resume system app;
  let elapsed_ns = App.run_script system app in
  let elapsed_s = elapsed_ns /. Units.s in
  checkb "script padded to nominal" true (elapsed_s >= 1.0);
  checkb "bounded overhead" true (elapsed_s < 1.5)

let test_app_no_sentry_script_is_nominal () =
  let system = System.boot `Tegra3 ~seed:3 in
  let app = App.launch system small_profile in
  let elapsed_s = App.run_script system app /. Units.s in
  Alcotest.(check (float 0.02)) "nominal" 1.0 elapsed_s

let test_apps_profiles_match_paper () =
  (* the numbers the paper states outright *)
  let maps = Apps.maps in
  Alcotest.(check (float 0.01)) "maps dma 15MB" 15.0 maps.App.dma_mb;
  Alcotest.(check (float 0.01)) "maps lock 48MB" 48.0 maps.App.footprint_mb;
  Alcotest.(check (float 0.01)) "maps unlock 38MB" 38.0 (maps.App.dma_mb +. maps.App.resume_mb);
  Alcotest.(check (float 0.01)) "contacts dma 1MB" 1.0 Apps.contacts.App.dma_mb;
  Alcotest.(check (float 0.01)) "twitter dma 3MB" 3.0 Apps.twitter.App.dma_mb;
  checki "four apps" 4 (List.length Apps.all)

(* -------------------------- Background_app ------------------------ *)

let run_bg ?(budget = None) profile ~seed =
  let system = System.boot `Tegra3 ~seed in
  let ws = profile.Background_app.working_set_kb * Units.kib in
  match budget with
  | None ->
      let proc = System.spawn system ~name:"bg" ~bytes:ws in
      System.fill_region system proc
        (List.hd (Address_space.regions proc.Process.aspace))
        (Bytes.of_string "bgpattrn");
      Background_app.run system proc profile ~seed
  | Some b ->
      let config = { (Config.default `Tegra3) with Config.background_budget_bytes = b } in
      let sentry = Sentry.install system config in
      let proc = System.spawn system ~name:"bg" ~bytes:ws in
      System.fill_region system proc
        (List.hd (Address_space.regions proc.Process.aspace))
        (Bytes.of_string "bgpattrn");
      Sentry.mark_sensitive sentry proc;
      Sentry.enable_background sentry proc;
      ignore (Sentry.lock sentry);
      Background_app.run system proc profile ~seed

let test_background_app_baseline_has_kernel_time () =
  let r = run_bg Background_app.vlock ~seed:4 in
  checkb "some kernel time" true (r.Background_app.kernel_time_ns > 0.0);
  checkb "some faults" true (r.Background_app.faults > 0)

let test_background_app_sentry_costs_more () =
  let base = run_bg Background_app.alpine ~seed:5 in
  let with256 = run_bg ~budget:(Some (256 * Units.kib)) Background_app.alpine ~seed:5 in
  checkb "sentry slower" true
    (with256.Background_app.kernel_time_ns > base.Background_app.kernel_time_ns)

let test_background_app_more_cache_helps () =
  let with256 = run_bg ~budget:(Some (256 * Units.kib)) Background_app.alpine ~seed:6 in
  let with512 = run_bg ~budget:(Some (512 * Units.kib)) Background_app.alpine ~seed:6 in
  checkb "512KB faster than 256KB" true
    (with512.Background_app.kernel_time_ns < with256.Background_app.kernel_time_ns)

let test_background_app_alpine_factor_range () =
  let base = run_bg Background_app.alpine ~seed:7 in
  let with256 = run_bg ~budget:(Some (256 * Units.kib)) Background_app.alpine ~seed:7 in
  let factor = with256.Background_app.kernel_time_ns /. base.Background_app.kernel_time_ns in
  (* paper: 2.74x; accept the right ballpark *)
  checkb "factor in [1.8, 3.8]" true (factor > 1.8 && factor < 3.8)

let test_background_app_deterministic () =
  let a = run_bg Background_app.vlock ~seed:8 in
  let b = run_bg Background_app.vlock ~seed:8 in
  Alcotest.(check (float 1e-6)) "same kernel time" a.Background_app.kernel_time_ns
    b.Background_app.kernel_time_ns

let test_background_app_ws_guard () =
  let system = System.boot `Tegra3 ~seed:9 in
  let proc = System.spawn system ~name:"small" ~bytes:4096 in
  Alcotest.check_raises "too big" (Invalid_argument "Background_app.run: working set too big")
    (fun () -> ignore (Background_app.run system proc Background_app.alpine ~seed:9))

(* ----------------------------- Filebench -------------------------- *)

let prepare crypto ~seed =
  let system = System.boot `Tegra3 ~seed in
  (match crypto with
  | Filebench.Sentry_aes -> ignore (Sentry.install system (Config.default `Tegra3))
  | _ -> ());
  Filebench.prepare system ~crypto ~fileset_mb:2 ~nfiles:4

let test_filebench_cache_masks_crypto () =
  let setup = prepare Filebench.Generic_aes ~seed:10 in
  let r = Filebench.run setup Filebench.Randread ~direct_io:false ~ops:200 ~seed:10 in
  checkb "warm cache" true (r.Filebench.cache_hit_rate > 0.95);
  let direct = Filebench.run setup Filebench.Randread ~direct_io:true ~ops:100 ~seed:10 in
  checkb "direct much slower" true
    (direct.Filebench.throughput_mb_s < r.Filebench.throughput_mb_s /. 5.0)

let test_filebench_direct_io_tracks_aes_rate () =
  let setup = prepare Filebench.Generic_aes ~seed:11 in
  let r = Filebench.run setup Filebench.Randread ~direct_io:true ~ops:100 ~seed:11 in
  (* 4KB reads decrypt 8 sectors at the tegra AES rate; throughput must
     land near it *)
  checkb "near AES rate" true
    (r.Filebench.throughput_mb_s > 8.0 && r.Filebench.throughput_mb_s < 14.0)

let test_filebench_sentry_close_to_generic () =
  let g = prepare Filebench.Generic_aes ~seed:12 in
  let s = prepare Filebench.Sentry_aes ~seed:12 in
  let rg = Filebench.run g Filebench.Randread ~direct_io:true ~ops:100 ~seed:12 in
  let rs = Filebench.run s Filebench.Randread ~direct_io:true ~ops:100 ~seed:12 in
  let ratio = rs.Filebench.throughput_mb_s /. rg.Filebench.throughput_mb_s in
  checkb "within 3%" true (ratio > 0.97 && ratio < 1.03)

let test_filebench_no_crypto_fast_everywhere () =
  let setup = prepare Filebench.No_crypto ~seed:13 in
  let direct = Filebench.run setup Filebench.Randread ~direct_io:true ~ops:100 ~seed:13 in
  checkb "ramdisk speed" true (direct.Filebench.throughput_mb_s > 100.0)

let test_filebench_data_integrity () =
  let setup = prepare Filebench.Sentry_aes ~seed:14 in
  (* write through cached path, read back through direct path: same
     bytes must emerge from the crypto stack *)
  let f_cached = Ramfs.lookup setup.Filebench.fs_cached "file000" in
  let f_direct = Ramfs.lookup setup.Filebench.fs_direct "file000" in
  Ramfs.write setup.Filebench.fs_cached f_cached ~off:123 (Bytes.of_string "integrity!");
  Buffer_cache.sync setup.Filebench.cache;
  Alcotest.(check bytes) "cached write visible via direct read" (Bytes.of_string "integrity!")
    (Ramfs.read setup.Filebench.fs_direct f_direct ~off:123 ~len:10)

(* --------------------------- Kernel_compile ----------------------- *)

let test_kernel_compile_baseline_calibrated () =
  let r = Kernel_compile.run ~locked_ways:0 () in
  Alcotest.(check (float 0.01)) "14.41 min" Kernel_compile.paper_baseline_minutes
    r.Kernel_compile.minutes

let test_kernel_compile_one_way_under_2pct () =
  let r = Kernel_compile.run ~locked_ways:1 () in
  let slowdown = (r.Kernel_compile.minutes /. Kernel_compile.paper_baseline_minutes) -. 1.0 in
  checkb "small slowdown" true (slowdown > 0.0 && slowdown < 0.02)

let test_kernel_compile_monotone () =
  let sweep = Kernel_compile.sweep () in
  checki "nine points" 9 (List.length sweep);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        (* allow the 7->8 anomaly: a fully locked cache degenerates to
           uncached access, which can differ from 1-way thrash *)
        (a.Kernel_compile.locked_ways >= 7 || a.Kernel_compile.minutes <= b.Kernel_compile.minutes)
        && monotone rest
    | _ -> true
  in
  checkb "monotone up to 7 ways" true (monotone sweep)

let test_kernel_compile_miss_rate_grows () =
  let r0 = Kernel_compile.run ~locked_ways:0 () in
  let r6 = Kernel_compile.run ~locked_ways:6 () in
  checkb "miss rate grows" true (r6.Kernel_compile.miss_rate > r0.Kernel_compile.miss_rate)

(* ------------------------------- Fleet ---------------------------- *)

let small_fleet = { Fleet.default with Fleet.cycles = 2 }

let test_fleet_latency_by_class () =
  let s = Fleet.run small_fleet in
  checki "three classes" 3 (List.length s.Fleet.latency_by_class);
  checkb "sorted by class name" true
    (List.map fst s.Fleet.latency_by_class = [ "large"; "medium"; "small" ]);
  let total = List.fold_left (fun acc (_, l) -> acc + l.Fleet.count) 0 s.Fleet.latency_by_class in
  checki "every tenant sampled every cycle" (small_fleet.Fleet.procs * small_fleet.Fleet.cycles)
    total;
  checki "raw samples behind the summary" total (List.length s.Fleet.first_touch_samples);
  List.iter
    (fun (cls, l) ->
      let msg what = Printf.sprintf "%s %s" cls what in
      checkb (msg "sampled") true (l.Fleet.count > 0);
      checkb (msg "positive latency") true (l.Fleet.p50_ns > 0.0);
      checkb (msg "p50<=p99") true (l.Fleet.p50_ns <= l.Fleet.p99_ns);
      checkb (msg "p99<=p999") true (l.Fleet.p99_ns <= l.Fleet.p999_ns);
      checkb (msg "p999<=max") true (l.Fleet.p999_ns <= l.Fleet.max_ns);
      checkb (msg "mean bounded by max") true (l.Fleet.mean_ns <= l.Fleet.max_ns))
    s.Fleet.latency_by_class

(* The acceptance bar for shard harvest: feeding the same samples
   through N shard registries and [Metrics.merge]ing them must
   reproduce the one-shard run's registry bit-for-bit, key for key.
   (Holds while each histogram fits the exact reservoir — 16 samples
   here, capacity 256.) *)
let test_fleet_sharded_metrics_merge_exactly () =
  let module Metrics = Sentry_obs.Metrics in
  let run = Fleet.run_sharded ~shards:1 ~domains:1 small_fleet in
  let global = run.Fleet.shards.Shard.merged_metrics in
  let shards = Array.init 3 (fun _ -> Metrics.create ()) in
  List.iteri
    (fun i (cls, ns) ->
      Metrics.observe
        (Metrics.histogram shards.(i mod 3) ~subsystem:"workloads.fleet"
           ~labels:
             [ ("backend", Backend.kind_name small_fleet.Fleet.backend); ("tenant_class", cls) ]
           "unlock_to_first_touch_ns")
        ns)
    run.Fleet.merged.Fleet.first_touch_samples;
  let merged = Metrics.merge (Metrics.merge shards.(0) shards.(1)) shards.(2) in
  checkb "sharded merge == global registry" true (Metrics.flat merged = Metrics.flat global);
  (* and shard order must not matter *)
  let merged' = Metrics.merge shards.(2) (Metrics.merge shards.(1) shards.(0)) in
  checkb "merge order invisible" true (Metrics.flat merged' = Metrics.flat global)

(* Digest of [Fleet.run Fleet.default]'s simulated outputs (samples,
   counts, simulated time, energy), captured before [Fleet.run] became
   the one-shard plan. *)
let test_fleet_golden () =
  let s = Fleet.run Fleet.default in
  let text =
    String.concat "|"
      [
        String.concat ";"
          (List.map (fun (c, v) -> Printf.sprintf "%s=%h" c v) s.Fleet.first_touch_samples);
        String.concat ","
          (List.map string_of_int
             [
               s.Fleet.fleet_pages;
               s.Fleet.pages_locked;
               s.Fleet.pages_unlocked_eager;
               s.Fleet.pages_faulted;
               s.Fleet.service_wakes_run;
               s.Fleet.io_sectors_done;
             ]);
        Printf.sprintf "%h,%h" s.Fleet.sim_elapsed_ns s.Fleet.energy_j;
      ]
  in
  Alcotest.(check string)
    "default fleet digest" "6941d46add4b70fe0e167d6838c03599"
    (Digest.to_hex (Digest.string text))

(* ---------------------- Fleet sharded (domains) -------------------- *)

let diff_cfg = { Fleet.default with Fleet.procs = 10; Fleet.pages_per_proc = 8; Fleet.cycles = 2 }

let run_sharded_traced ~domains cfg =
  let module Trace = Sentry_obs.Trace in
  let r = Trace.Recorder.create ~capacity:8192 () in
  Trace.install r;
  Fun.protect ~finally:Trace.uninstall (fun () -> Fleet.run_sharded ~domains cfg)

(* Host walls (and the throughput derived from them) are the only
   fields allowed to move with the domain count. *)
let strip_walls (s : Fleet.stats) =
  { s with Fleet.lock_wall_s = 0.0; unlock_wall_s = 0.0; lock_pages_per_s = 0.0 }

let test_fleet_shard_plan_pure () =
  Alcotest.(check (list (pair int int)))
    "10 tenants over 4 shards" [ (0, 3); (3, 3); (6, 3); (9, 1) ]
    (Fleet.shard_plan ~procs:10 ~shards:4);
  Alcotest.(check (list (pair int int)))
    "shards clamped to procs" [ (0, 1); (1, 1) ]
    (Fleet.shard_plan ~procs:2 ~shards:8);
  checki "default shards" 10 (Fleet.default_shards ~procs:10);
  checki "default capped at 16" 16 (Fleet.default_shards ~procs:64)

(* The PR's acceptance gate: a --domains 1 and a --domains 4 run must
   merge to identical flat metrics, identical summed trace category
   counts, and identical per-tenant ESSIV/PTE fingerprints.  The shard
   partition depends only on (procs, shards), so D is pure execution
   parallelism. *)
let test_fleet_domains_differential () =
  let module Metrics = Sentry_obs.Metrics in
  let module Trace = Sentry_obs.Trace in
  let a = run_sharded_traced ~domains:1 diff_cfg in
  let b = run_sharded_traced ~domains:4 diff_cfg in
  checkb "merged flat metrics identical" true
    (Metrics.flat a.Fleet.shards.Shard.merged_metrics
    = Metrics.flat b.Fleet.shards.Shard.merged_metrics);
  (match (a.Fleet.shards.Shard.merged_recorder, b.Fleet.shards.Shard.merged_recorder) with
  | Some ra, Some rb ->
      checkb "summed trace category counts identical" true
        (Trace.Recorder.category_counts ra = Trace.Recorder.category_counts rb);
      checkb "recorders saw events" true
        ((Trace.Recorder.stats ra).Trace.emitted > 0)
  | _ -> Alcotest.fail "sharded runs should carry merged recorders");
  checkb "per-tenant ESSIV/PTE fingerprints identical" true
    (a.Fleet.fingerprints = b.Fleet.fingerprints);
  checkb "merged stats identical up to host walls" true
    (strip_walls a.Fleet.merged = strip_walls b.Fleet.merged);
  checki "one fingerprint per tenant" diff_cfg.Fleet.procs (List.length a.Fleet.fingerprints);
  (* contiguous shard blocks with pid_base = first_tenant + 1 keep the
     serial run's pid assignment: tenant i holds pid i+1 *)
  List.iteri
    (fun i (fp : Fleet.fingerprint) ->
      checki "global tenant index" i fp.Fleet.tenant_index;
      checki "serial pid preserved" (i + 1) fp.Fleet.tenant_pid;
      checkb "class from global index" true (fp.Fleet.tenant_cls = Fleet.tenant_class ~index:i))
    a.Fleet.fingerprints

let test_fleet_sharded_repeatable () =
  let a = run_sharded_traced ~domains:2 diff_cfg in
  let b = run_sharded_traced ~domains:2 diff_cfg in
  checkb "same D twice: identical merge and fingerprints" true
    (strip_walls a.Fleet.merged = strip_walls b.Fleet.merged
    && a.Fleet.fingerprints = b.Fleet.fingerprints)

let test_fleet_sharded_faults_invariant () =
  let module Plan = Sentry_faults.Plan in
  let plan =
    Plan.make ~name:"shard-flips"
      [
        Plan.trigger ~point:Sentry_faults.Injector.Points.dm_crypt_sector
          ~kind:(Sentry_faults.Fault.Bit_flip 2) ~at:(Plan.Every 3);
      ]
  in
  let a = Fleet.run_sharded ~faults:plan ~domains:1 diff_cfg in
  let b = Fleet.run_sharded ~faults:plan ~domains:4 diff_cfg in
  let fired (sh : Fleet.sharded) = List.fold_left ( + ) 0 sh.Fleet.shards.Shard.faults_fired in
  checkb "faults fired" true (fired a > 0);
  checki "fault occurrence totals D-invariant" (fired a) (fired b);
  checkb "fingerprints identical under faults" true (a.Fleet.fingerprints = b.Fleet.fingerprints)

(* [Fleet.run] is the one-shard plan: the same merge whether the one
   shard runs in the caller or on a pool worker. *)
let test_fleet_run_is_one_shard_plan () =
  let s = Fleet.run diff_cfg in
  let in_caller = Fleet.run_sharded ~shards:1 ~domains:1 diff_cfg in
  let on_pool = Fleet.run_sharded ~shards:1 ~domains:2 diff_cfg in
  checki "one shard" 1 (List.length in_caller.Fleet.shards.Shard.plan);
  checkb "run matches the one-shard merge" true
    (strip_walls s = strip_walls in_caller.Fleet.merged);
  checkb "caller and pool execution agree" true
    (strip_walls in_caller.Fleet.merged = strip_walls on_pool.Fleet.merged
    && in_caller.Fleet.fingerprints = on_pool.Fleet.fingerprints)

(* At D=1 the shards run in the calling domain.  The caller's own
   recorder and injector session must survive the run (physically the
   same handles), and the shard must see neither: the caller's plan
   never fires, the caller's recorder stays empty, and the shard's
   events land only in the merged recorder. *)
let test_shard_in_caller_isolation () =
  let module Trace = Sentry_obs.Trace in
  let module Injector = Sentry_faults.Injector in
  let module Plan = Sentry_faults.Plan in
  let recorder = Trace.Recorder.create ~capacity:8192 () in
  let session =
    Injector.create
      (Plan.make ~name:"caller"
         [
           Plan.trigger ~point:Injector.Points.dm_crypt_sector
             ~kind:(Sentry_faults.Fault.Bit_flip 1) ~at:(Plan.Every 1);
         ])
  in
  Trace.install recorder;
  Injector.activate session;
  let sh =
    Fun.protect
      ~finally:(fun () ->
        Injector.deactivate ();
        Trace.uninstall ())
      (fun () ->
        let sh = Fleet.run_sharded ~domains:1 diff_cfg in
        checkb "caller recorder still installed" true
          (match Trace.installed () with Some r -> r == recorder | None -> false);
        checkb "caller session still active" true
          (match Injector.current () with Some x -> x == session | None -> false);
        sh)
  in
  checki "caller plan never fired" 0 (List.length (Injector.fired_of session));
  checki "caller plan saw no arrivals" 0
    (Injector.occurrences_of session Injector.Points.dm_crypt_sector);
  checki "caller recorder untouched" 0 (Trace.Recorder.stats recorder).Trace.emitted;
  match sh.Fleet.shards.Shard.merged_recorder with
  | Some r ->
      checkb "shard events in the merged recorder" true
        ((Trace.Recorder.stats r).Trace.emitted > 0)
  | None -> Alcotest.fail "a tracing caller should get a merged recorder"

(* Simulated DRAM is zeroed on first touch, so a shard pays host
   memory only for the chunks it uses.  One fleet-churn-shaped shard
   (4 tenants x 16 pages x 3 cycles on a 32 MiB Tegra 3) touches well
   under 1 MiB; a stray whole-image [Dram.raw] on the boot, lock or
   unlock path would materialise all 32 MiB and trip this. *)
let test_fleet_shard_dram_mostly_untouched () =
  let cfg = { Fleet.default with Fleet.procs = 4; pages_per_proc = 16; cycles = 3 } in
  let sh = Fleet.run_sharded ~shards:1 ~domains:1 cfg in
  List.iter
    (fun ((s : Fleet.stats), _) ->
      let resident = s.Fleet.dram_resident_bytes in
      checkb "shard touched some DRAM" true (resident > 0);
      if resident >= 2 * Units.mib then
        Alcotest.failf "shard materialised %d KiB of its 32 MiB DRAM (limit 2048 KiB)"
          (resident / Units.kib))
    sh.Fleet.shards.Shard.results

(* ----------------------------- Daily_use -------------------------- *)

let test_daily_use_estimates () =
  let r = Daily_use.estimate Apps.maps in
  checkb "about 1-2% for maps" true
    (r.Daily_use.battery_fraction > 0.005 && r.Daily_use.battery_fraction < 0.03);
  checki "150 cycles" 150 r.Daily_use.cycles_per_day;
  let tiny = Daily_use.estimate Apps.mp3 in
  checkb "smaller app costs less" true
    (tiny.Daily_use.joules_per_day < r.Daily_use.joules_per_day)

let test_daily_use_measured () =
  let system = System.boot `Nexus4 ~seed:15 in
  let sentry = Sentry.install system (Config.default `Nexus4) in
  let app = App.launch system small_profile in
  Sentry.mark_sensitive sentry app.App.proc;
  let r = Daily_use.measure system sentry app ~cycles:3 in
  checkb "positive" true (r.Daily_use.joules_per_day > 0.0);
  checkb "tiny app under 1%" true (r.Daily_use.battery_fraction < 0.01)

let () =
  Alcotest.run "sentry_workloads"
    [
      ( "app",
        [
          Alcotest.test_case "launch regions" `Quick test_app_launch_regions;
          Alcotest.test_case "cycle overhead" `Quick test_app_cycle_overhead_positive;
          Alcotest.test_case "nominal without sentry" `Quick test_app_no_sentry_script_is_nominal;
          Alcotest.test_case "paper profiles" `Quick test_apps_profiles_match_paper;
        ] );
      ( "background_app",
        [
          Alcotest.test_case "baseline kernel time" `Quick
            test_background_app_baseline_has_kernel_time;
          Alcotest.test_case "sentry costs more" `Quick test_background_app_sentry_costs_more;
          Alcotest.test_case "more cache helps" `Quick test_background_app_more_cache_helps;
          Alcotest.test_case "alpine factor" `Quick test_background_app_alpine_factor_range;
          Alcotest.test_case "deterministic" `Quick test_background_app_deterministic;
          Alcotest.test_case "working-set guard" `Quick test_background_app_ws_guard;
        ] );
      ( "filebench",
        [
          Alcotest.test_case "cache masks crypto" `Quick test_filebench_cache_masks_crypto;
          Alcotest.test_case "direct tracks AES rate" `Quick test_filebench_direct_io_tracks_aes_rate;
          Alcotest.test_case "sentry close to generic" `Quick test_filebench_sentry_close_to_generic;
          Alcotest.test_case "no crypto fast" `Quick test_filebench_no_crypto_fast_everywhere;
          Alcotest.test_case "data integrity" `Quick test_filebench_data_integrity;
        ] );
      ( "kernel_compile",
        [
          Alcotest.test_case "baseline" `Quick test_kernel_compile_baseline_calibrated;
          Alcotest.test_case "one way <2%" `Quick test_kernel_compile_one_way_under_2pct;
          Alcotest.test_case "monotone" `Quick test_kernel_compile_monotone;
          Alcotest.test_case "miss rate grows" `Quick test_kernel_compile_miss_rate_grows;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "latency by class" `Quick test_fleet_latency_by_class;
          Alcotest.test_case "sharded metrics merge" `Quick
            test_fleet_sharded_metrics_merge_exactly;
          Alcotest.test_case "golden default digest" `Quick test_fleet_golden;
        ] );
      ( "fleet_sharded",
        [
          Alcotest.test_case "shard plan pure" `Quick test_fleet_shard_plan_pure;
          Alcotest.test_case "D=1 vs D=4 differential" `Quick test_fleet_domains_differential;
          Alcotest.test_case "repeatable at same D" `Quick test_fleet_sharded_repeatable;
          Alcotest.test_case "fault totals D-invariant" `Quick
            test_fleet_sharded_faults_invariant;
          Alcotest.test_case "run is the one-shard plan" `Quick test_fleet_run_is_one_shard_plan;
          Alcotest.test_case "in-caller shard isolation" `Quick test_shard_in_caller_isolation;
          Alcotest.test_case "shard DRAM mostly untouched" `Quick
            test_fleet_shard_dram_mostly_untouched;
        ] );
      ( "daily_use",
        [
          Alcotest.test_case "estimates" `Quick test_daily_use_estimates;
          Alcotest.test_case "measured" `Quick test_daily_use_measured;
        ] );
    ]
