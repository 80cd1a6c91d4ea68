(** filebench-io: Tegra 3 with Sentry installed and a 12 MiB, 12-file
    fileset on dm-crypt through AES_On_SoC.  Each call is a pair of
    1,200-op runs: random read/write with direct I/O (crypto and
    kernel at 512-byte sector granularity, no lock walk) and random
    read through the warm buffer cache (which bypasses crypto).  A
    lock-path change should not move this workload. *)

open Sentry_soc
open Sentry_core
open Sentry_workloads

let ops = 1200

let bring ctx ~seed =
  let system = Span.run ctx "core.boot" (fun _ -> System.boot `Tegra3 ~seed) in
  ignore (Span.run ctx "core.install" (fun _ -> Sentry.install system (Config.default `Tegra3)));
  Span.run ctx "workloads.prepare" (fun _ ->
      Filebench.prepare system ~crypto:Filebench.Sentry_aes ~fileset_mb:12 ~nfiles:12)

(* Each pair first rewinds the simulated clock to where [prepare] left
   it: simulated times are differences of clock readings, and their
   rounding would otherwise drift as the clock grows from pair to pair. *)
let pair (setup, t0) ~seed ctx i =
  let clock = Machine.clock (System.machine setup.Filebench.system) in
  Clock.reset clock;
  Clock.advance clock t0;
  let run name workload ~direct_io ~seed =
    Span.run ctx name ~items:(fun _ -> ops) (fun _ ->
        Filebench.run setup workload ~direct_io ~ops ~seed)
  in
  let rw = run "workloads.randrw_direct" Filebench.Randrw ~direct_io:true ~seed:(seed + (2 * i)) in
  let rd =
    run "workloads.randread_cached" Filebench.Randread ~direct_io:false ~seed:(seed + (2 * i) + 1)
  in
  let fields (r : Filebench.result) =
    [ float_of_int r.bytes_moved; r.elapsed_ns; r.throughput_mb_s; r.cache_hit_rate ]
  in
  {
    Workload.key = "pair";
    items = 2 * ops;
    attempted = 1;
    failed = 0;
    digest = Workload.digest_of_string (Workload.floats (fields rw @ fields rd));
    sim = [ ("sim_filebench_mb_per_s", rw.throughput_mb_s) ];
  }

(* Simulated-output digest of a pair.  Per-op simulated costs do not
   depend on the seed, which only picks offsets and data. *)
let pinned = "ff58de4b3ee61d94c344b5053216a776"

let make ~seed =
  let setup = ref None in
  let current () = Option.get !setup in
  {
    Workload.item = "I/O ops";
    period = 1;
    bring_up =
      (fun ctx ->
        let s = bring ctx ~seed in
        setup := Some (s, System.now s.system));
    call = (fun i -> pair (current ()) ~seed Span.Off i);
    traced = (fun ctx i -> pair (current ()) ~seed ctx i);
    two_domains = None;
    pin = (fun _ -> Some pinned);
  }
