(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§8), then runs the Bechamel microbenchmark
    suite over the implementation's primitives.

    {v
    dune exec bench/main.exe                 # everything
    dune exec bench/main.exe -- fig9 fig10   # selected experiments
    dune exec bench/main.exe -- micro        # microbenchmarks only
    dune exec bench/main.exe -- --list       # what exists
    v} *)

let list_experiments () =
  print_endline "Available experiments:";
  List.iter
    (fun (e : Sentry_experiments.Experiments.entry) ->
      Printf.printf "  %-11s %s\n" e.Sentry_experiments.Experiments.id
        e.Sentry_experiments.Experiments.description)
    Sentry_experiments.Experiments.all;
  print_endline "  micro       bechamel microbenchmarks"

let run_all () =
  print_endline "Sentry: reproduction of every table and figure (ASPLOS'15)";
  print_endline "==========================================================\n";
  List.iter Sentry_experiments.Experiments.run_and_print Sentry_experiments.Experiments.all;
  Micro.run ()

let run_selected ~csv ids =
  List.iter
    (fun id ->
      if id = "micro" then Micro.run ()
      else
        match Sentry_experiments.Experiments.find id with
        | Some e ->
            if csv then
              List.iter
                (fun t -> print_string (Sentry_util.Table.to_csv t))
                (e.Sentry_experiments.Experiments.run ())
            else Sentry_experiments.Experiments.run_and_print e
        | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" id;
            exit 1)
    ids

(* ------------------------- machine-readable ---------------------- *)

let find_or_die id =
  match Sentry_experiments.Experiments.find id with
  | Some e -> e
  | None ->
      Printf.eprintf "unknown experiment %S (try --list)\n" id;
      exit 1

(* One timed run with its host GC cost: wall-clock seconds plus the
   minor/major words the run allocated.  The GC numbers are what the
   zero-allocation fast path is accountable to; the simulated outputs
   themselves are independent of them by construction.

   Caches are dropped before the bracket so trials are i.i.d. — with
   the Figs 2-5 memo warm, only the first trial did the work and the
   committed fig2/fig4 rows showed min ≈ 4 µs vs max ≈ 6.4 s. *)
let time_once run =
  Sentry_experiments.Experiments.reset_caches ();
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  ignore (run ());
  let dt = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  (dt, gc1.Gc.minor_words -. gc0.Gc.minor_words, gc1.Gc.major_words -. gc0.Gc.major_words)

(* BENCH_sentry.json: wall-clock summaries per experiment plus the key
   simulator counters from one traced lock-cycle, under a versioned
   schema so downstream tooling can evolve. *)
let run_json ~path ~trials ~slo_spec ids =
  let entries =
    match ids with
    | [] -> Sentry_experiments.Experiments.all
    | ids -> List.map find_or_die ids
  in
  let open Sentry_obs in
  let experiment (e : Sentry_experiments.Experiments.entry) =
    let minor = ref 0.0 and major = ref 0.0 in
    let times =
      Array.init trials (fun _ ->
          let dt, dminor, dmajor = time_once e.Sentry_experiments.Experiments.run in
          minor := !minor +. dminor;
          major := !major +. dmajor;
          dt)
    in
    let s = Sentry_util.Stats.summarize times in
    Printf.printf "  %-11s %d trials, mean %.3fs ± %.3fs, %.2e minor words/trial\n%!"
      e.Sentry_experiments.Experiments.id trials s.Sentry_util.Stats.mean
      s.Sentry_util.Stats.stddev
      (!minor /. float_of_int trials);
    Json_out.Obj
      [
        ("id", Json_out.Str e.Sentry_experiments.Experiments.id);
        ("description", Json_out.Str e.Sentry_experiments.Experiments.description);
        ("n", Json_out.Int s.Sentry_util.Stats.n);
        ("mean_s", Json_out.Float s.Sentry_util.Stats.mean);
        ("stddev_s", Json_out.Float s.Sentry_util.Stats.stddev);
        ("min_s", Json_out.Float s.Sentry_util.Stats.min);
        ("max_s", Json_out.Float s.Sentry_util.Stats.max);
        ("gc_minor_words_mean", Json_out.Float (!minor /. float_of_int trials));
        ("gc_major_words_mean", Json_out.Float (!major /. float_of_int trials));
      ]
  in
  Printf.printf "bench --json: %d experiment(s), %d trial(s) each\n%!"
    (List.length entries) trials;
  let results = List.map experiment entries in
  (* one traced lock-cycle supplies the simulator-side counters *)
  let recorder = Trace.Recorder.create () in
  Trace.install recorder;
  let r = Sentry_core.Trace_scenario.run Sentry_core.Trace_scenario.Lock_cycle `Tegra3 in
  Trace.uninstall ();
  let counters =
    List.map
      (fun (k, v) -> (k, Json_out.Float v))
      (Sentry_core.Obs_report.flat ~recorder r.Sentry_core.Trace_scenario.sentry)
  in
  (* fleet throughput: batched vs per-page at each fleet size; the
     speedup is a same-run ratio so host noise largely cancels *)
  let fleet =
    List.map
      (fun n ->
        let b, p = Sentry_experiments.Exp_fleet.measure ~trials:(max 3 trials) n in
        Printf.printf
          "  fleet n=%-4d batched %.0f pages/s, per-page %.0f pages/s (%.2fx)\n%!" n
          b.Sentry_workloads.Fleet.lock_pages_per_s p.Sentry_workloads.Fleet.lock_pages_per_s
          (b.Sentry_workloads.Fleet.lock_pages_per_s /. p.Sentry_workloads.Fleet.lock_pages_per_s);
        Json_out.Obj
          [
            ("procs", Json_out.Int n);
            ("pages_locked", Json_out.Int b.Sentry_workloads.Fleet.pages_locked);
            ("batched_lock_pages_per_s", Json_out.Float b.Sentry_workloads.Fleet.lock_pages_per_s);
            ("per_page_lock_pages_per_s", Json_out.Float p.Sentry_workloads.Fleet.lock_pages_per_s);
            ( "speedup",
              Json_out.Float
                (b.Sentry_workloads.Fleet.lock_pages_per_s
                /. p.Sentry_workloads.Fleet.lock_pages_per_s) );
            ( "unlock_to_first_touch_ns",
              Json_out.Float b.Sentry_workloads.Fleet.unlock_to_first_touch_ns );
          ])
      Sentry_experiments.Exp_fleet.fleet_sizes
  in
  (* multicore scaling: the sharded fleet at D domains.  Pages locked
     over the wall time of the whole execution (boot, spawn, lock,
     unlock and pool included), so on an N-core host speedup_vs_d1
     should approach min(D, N); on a single core it stays flat at ~1.0.
     The lock walk's own rate is the fleet section's lock_pages_per_s. *)
  let fleet_domains =
    let module F = Sentry_workloads.Fleet in
    let module Shard = Sentry_workloads.Shard in
    let cfg = { F.default with procs = 16; pages_per_proc = 24; cycles = 3 } in
    let baseline = ref nan in
    List.map
      (fun d ->
        let sh = F.run_sharded ~domains:d cfg in
        let wall_s = sh.F.shards.Shard.wall_s in
        let rate = float_of_int sh.F.merged.F.pages_locked /. wall_s in
        if d = 1 then baseline := rate;
        let speedup = rate /. !baseline in
        let shards = List.length sh.F.shards.Shard.plan in
        Printf.printf "  fleet_domains d=%d shards=%d %.0f pages/wall-s (%.2fx vs d=1)\n%!" d
          shards rate speedup;
        Json_out.Obj
          [
            ("domains", Json_out.Int d);
            ("shards", Json_out.Int shards);
            ("pages_locked", Json_out.Int sh.F.merged.F.pages_locked);
            ("wall_s", Json_out.Float wall_s);
            ("pages_per_wall_s", Json_out.Float rate);
            ("speedup_vs_d1", Json_out.Float speedup);
          ])
      [ 1; 2; 4; 8 ]
  in
  (* the serve front end: one quiet default run (zero sheds expected)
     and one chaos soak — both fully simulated, so the section is
     deterministic and diffable across snapshot refreshes *)
  let serve =
    let module Sv = Sentry_serve.Server in
    let quiet = Sv.run Sv.default in
    let soak = Sv.run { Sv.default with Sv.soak = true } in
    Printf.printf
      "  serve: %d served / %d requests (shed rate %.3f); soak %d crash(es), %d audit finding(s)\n%!"
      quiet.Sv.served quiet.Sv.requests quiet.Sv.shed_rate soak.Sv.crashes_injected
      soak.Sv.audit_findings;
    Json_out.Obj [ ("quiet", Sv.json quiet); ("soak", Sv.json soak) ]
  in
  (* the protection-backend race: per-backend app-cycle numbers and
     the measured lock-size crossover between the batched CPU path and
     the MemShield-style offload queue — all simulated, so the section
     is deterministic and diffable across snapshot refreshes *)
  let backends =
    let module EB = Sentry_experiments.Exp_backends in
    let kname = Sentry_core.Backend.kind_name in
    let crossover = EB.lock_crossover_pages () in
    Printf.printf "  backends: offload lock crossover %s; fault ns %s\n%!"
      (match crossover with
      | Some n -> Printf.sprintf "at %d pages" n
      | None -> "not reached")
      (String.concat ", "
         (List.map
            (fun b -> Printf.sprintf "%s %.0f" (kname b) (EB.fault_elapsed_ns b))
            EB.backends));
    let sweep =
      List.map
        (fun n ->
          Json_out.Obj
            [
              ("pages", Json_out.Int n);
              ("batched_lock_ns", Json_out.Float (EB.lock_elapsed_ns Sentry_core.Sentry.Batched ~pages:n));
              ("offload_lock_ns", Json_out.Float (EB.lock_elapsed_ns Sentry_core.Sentry.Offload ~pages:n));
            ])
        EB.sweep_sizes
    in
    let app =
      List.map
        (fun (b, (m : Sentry_experiments.Exp_apps.metrics)) ->
          ( kname b,
            Json_out.Obj
              [
                ("lock_s", Json_out.Float m.Sentry_experiments.Exp_apps.lock_s);
                ("lock_mb", Json_out.Float m.Sentry_experiments.Exp_apps.lock_mb);
                ("unlock_s", Json_out.Float m.Sentry_experiments.Exp_apps.unlock_s);
              ] ))
        (EB.app_race ())
    in
    let faults =
      List.map (fun b -> (kname b, Json_out.Float (EB.fault_elapsed_ns b))) EB.backends
    in
    Json_out.Obj
      [
        ( "lock_crossover_pages",
          match crossover with Some n -> Json_out.Int n | None -> Json_out.Null );
        ("lock_sweep", Json_out.List sweep);
        ("fault_ns", Json_out.Obj faults);
        ("app_mp3", Json_out.Obj app);
      ]
  in
  (* per-tenant-class latency SLOs over one default fleet run — the
     same objectives the CI gate enforces via `sentry_cli slo`.  The
     spec file is optional so bench still runs from any directory. *)
  let slo =
    match Slo.load ~path:slo_spec with
    | Error msg ->
        Printf.printf "  slo: no spec (%s); section omitted\n%!" msg;
        Json_out.Null
    | Ok objectives ->
        let metrics = Metrics.create () in
        ignore (Sentry_workloads.Fleet.run ~metrics Sentry_workloads.Fleet.default);
        (* serve rides along in the same snapshot: the spec's
           queue-wait / shed-rate objectives need its keys *)
        ignore (Sentry_serve.Server.run ~metrics Sentry_serve.Server.default);
        let report = Slo.evaluate objectives (Metrics.flat metrics) in
        Printf.printf "  slo: %d objective(s), %d violation(s)\n%!"
          (List.length report.Slo.outcomes) report.Slo.violations;
        Slo.report_json report
  in
  let doc =
    Json_out.Obj
      [
        ("schema", Json_out.Str "sentry-bench/v1");
        ("trials", Json_out.Int trials);
        ("experiments", Json_out.List results);
        ("fleet", Json_out.List fleet);
        ("fleet_domains", Json_out.List fleet_domains);
        ("serve", serve);
        ("backends", backends);
        ("counters", Json_out.Obj counters);
        ("slo", slo);
      ]
  in
  Export.write_file ~path (Json_out.to_string doc ^ "\n");
  Printf.printf "wrote %s\n" path

(* --------------------------- regression diff --------------------- *)

(* [bench --compare FILE] re-times the experiments recorded in a
   committed snapshot and reports which drifted beyond tolerance.
   Wall clock is environment sensitive (CI runners differ from dev
   machines), so the diff is warn-only: it never fails the build, it
   makes a slowdown visible in the log next to the run that caused
   it. *)
(* Defaults to the snapshot's own trial count.  [time_once] resets the
   cross-trial caches, so trials are i.i.d. and the count only affects
   noise, but matching the snapshot keeps the statistics comparable. *)
let run_compare ~path ~trials ~tolerance ids =
  let open Sentry_obs in
  let doc =
    let text =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error msg ->
        Printf.eprintf "cannot read snapshot: %s\n" msg;
        exit 1
    in
    try Json_in.parse text
    with Json_in.Parse_error msg ->
      Printf.eprintf "%s: unparseable snapshot (%s)\n" path msg;
      exit 1
  in
  let snapshot =
    match Option.bind (Json_in.member "experiments" doc) Json_in.to_list with
    | Some exps ->
        List.filter_map
          (fun e ->
            match
              ( Option.bind (Json_in.member "id" e) Json_in.to_string,
                Option.bind (Json_in.member "mean_s" e) Json_in.to_float )
            with
            | Some id, Some mean -> Some (id, mean)
            | _ -> None)
          exps
    | None ->
        Printf.eprintf "%s: no \"experiments\" array (expected schema sentry-bench/v1)\n" path;
        exit 1
  in
  let trials =
    match trials with
    | Some n -> n
    | None -> (
        match Option.bind (Json_in.member "trials" doc) Json_in.to_float with
        | Some n -> int_of_float n
        | None -> 3)
  in
  let selected =
    match ids with
    | [] -> snapshot
    | ids ->
        List.iter
          (fun id ->
            ignore (find_or_die id);
            if not (List.mem_assoc id snapshot) then
              Printf.eprintf "note: %S is not in %s; skipping\n" id path)
          ids;
        List.filter (fun (id, _) -> List.mem id ids) snapshot
  in
  Printf.printf "bench --compare: %d experiment(s) vs %s, %d trial(s) each, tolerance %.0f%%\n"
    (List.length selected) path trials (tolerance *. 100.0);
  Printf.printf "  %-11s %12s %12s %7s\n%!" "id" "snapshot" "fresh min" "ratio";
  (* sub-tolerance absolute drift on the microsecond experiments is
     scheduler noise, not regression *)
  let abs_floor_s = 0.05 in
  let drifted =
    List.filter
      (fun (id, snap_mean) ->
        match Sentry_experiments.Experiments.find id with
        | None ->
            Printf.printf "  %-11s %11.3fs %12s\n%!" id snap_mean "(gone)";
            false
        | Some e ->
            let times =
              Array.init trials (fun _ ->
                  let dt, _, _ = time_once e.Sentry_experiments.Experiments.run in
                  dt)
            in
            (* best-of-N: the min is the noise-robust timing statistic —
               transient machine load inflates the mean, never deflates
               the min — so a warning here means the code itself slowed *)
            let fresh = (Sentry_util.Stats.summarize times).Sentry_util.Stats.min in
            let ratio = if snap_mean > 0.0 then fresh /. snap_mean else Float.infinity in
            let slower =
              fresh -. snap_mean > abs_floor_s && fresh > snap_mean *. (1.0 +. tolerance)
            in
            Printf.printf "  %-11s %11.3fs %11.3fs %6.2fx%s\n%!" id snap_mean fresh ratio
              (if slower then "  WARN: slower than snapshot" else "");
            slower)
      selected
  in
  (match drifted with
  | [] -> Printf.printf "all within tolerance of %s\n" path
  | ds ->
      Printf.printf "%d experiment(s) slower than the snapshot beyond tolerance: %s\n"
        (List.length ds)
        (String.concat ", " (List.map fst ds));
      Printf.printf "(warn-only: wall clock varies across machines; refresh with --json if real)\n")

open Cmdliner

let ids =
  let doc = "Experiment ids to run (default: all + micro). Use --list to enumerate." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let list_flag =
  let doc = "List available experiments." in
  Arg.(value & flag & info [ "list" ] ~doc)

let csv_flag =
  let doc = "Emit CSV instead of aligned tables (selected experiments only)." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let json_flag =
  let doc = "Write machine-readable results (schema sentry-bench/v1) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trials_flag =
  let doc =
    "Wall-clock trials per experiment in --json and --compare modes (default: 3 for --json; the \
     snapshot's own trial count for --compare)."
  in
  Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N" ~doc)

let compare_flag =
  let doc =
    "Re-time the experiments recorded in the snapshot $(docv) and warn about regressions beyond \
     --tolerance. Never fails: wall clock is environment sensitive."
  in
  Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"FILE" ~doc)

let tolerance_flag =
  let doc = "Relative slowdown tolerated by --compare before warning (fraction, e.g. 0.3)." in
  Arg.(value & opt float 0.3 & info [ "tolerance" ] ~docv:"FRAC" ~doc)

let slo_spec_flag =
  let doc =
    "SLO spec evaluated into the --json snapshot's \"slo\" section (omitted if unreadable)."
  in
  Arg.(value & opt string "slo.spec" & info [ "slo-spec" ] ~docv:"FILE" ~doc)

let main list_it csv json compare tolerance trials slo_spec ids =
  if list_it then list_experiments ()
  else
    match (json, compare) with
    | Some _, Some _ ->
        prerr_endline "--json and --compare are mutually exclusive";
        exit 1
    | Some path, None -> run_json ~path ~trials:(Option.value trials ~default:3) ~slo_spec ids
    | None, Some path -> run_compare ~path ~trials ~tolerance ids
    | None, None -> ( match ids with [] -> run_all () | ids -> run_selected ~csv ids)

let cmd =
  let doc = "regenerate the Sentry paper's tables and figures" in
  Cmd.v (Cmd.info "sentry-bench" ~doc)
    Term.(
      const main $ list_flag $ csv_flag $ json_flag $ compare_flag $ tolerance_flag $ trials_flag
      $ slo_spec_flag $ ids)

let () = exit (Cmd.eval cmd)
