(** sentry-cli: drive the simulator from the command line.

    {v
    sentry-cli list                         # available experiments
    sentry-cli exp table3 fig10             # run experiments
    sentry-cli demo                         # lock/unlock walk-through
    sentry-cli attack --variant reflash     # mount a cold-boot attack
    v} *)

open Cmdliner
open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

(* Shared --backend plumbing: every workload-ish subcommand takes
   --backend NAME. *)
let backend_names = String.concat "|" (List.map Backend.kind_name Backend.all_kinds)

let resolve_backend name =
  match Backend.kind_of_string name with
  | Some b -> b
  | None ->
      Printf.eprintf "unknown backend %S (%s)\n" name backend_names;
      exit 1

let backend_arg =
  Arg.(value & opt string "batched"
       & info [ "backend" ] ~docv:"BACKEND" ~doc:("protection backend: " ^ backend_names))

(* Shared --domains plumbing for fleet, serve and slo, as the
   (?shards, domains) pair handed to [run_sharded].  Without the flag
   every tenant shares one simulated machine (the one-shard plan, so
   later tenants queue behind earlier tenants' faults); with
   --domains D the tenants run as the default shard plan on D domains,
   and the merged outputs are the same for every D. *)
let shards_arg =
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D"
           ~doc:"split the tenants into the default shard plan and run it on $(docv) OCaml \
                 domains; merged outputs are identical for every $(docv)")
  in
  Term.(const (function None -> (Some 1, 1) | Some d -> (None, d)) $ domains)

(* ------------------------------ list ----------------------------- *)

let list_cmd =
  let doc = "list available experiments" in
  let run () =
    List.iter
      (fun (e : Sentry_experiments.Experiments.entry) ->
        Printf.printf "  %-11s %s\n" e.Sentry_experiments.Experiments.id
          e.Sentry_experiments.Experiments.description)
      Sentry_experiments.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------ exp ------------------------------ *)

let exp_cmd =
  let doc = "run experiments by id (see list)" in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let run ids =
    List.iter
      (fun id ->
        match Sentry_experiments.Experiments.find id with
        | Some e -> Sentry_experiments.Experiments.run_and_print e
        | None ->
            Printf.eprintf "unknown experiment %S\n" id;
            exit 1)
      ids
  in
  Cmd.v (Cmd.info "exp" ~doc) Term.(const run $ ids)

(* ------------------------------ demo ----------------------------- *)

let demo () =
  let system = System.boot `Tegra3 ~seed:42 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  Printf.printf "Booted %s: %s DRAM, %s iRAM, %d-way %s L2\n"
    (Machine.config machine).Machine.name
    (Units.to_string Units.pp_bytes (Machine.config machine).Machine.dram_size)
    (Units.to_string Units.pp_bytes (Machine.config machine).Machine.iram_size)
    (Pl310.ways (Machine.l2 machine))
    (Units.to_string Units.pp_bytes (Pl310.size (Machine.l2 machine)));
  let app = System.spawn system ~name:"mail" ~bytes:(512 * Units.kib) in
  let region = List.hd (Address_space.regions app.Process.aspace) in
  let secret = Bytes.of_string "ATTACK AT DAWN!!" in
  System.fill_region system app region secret;
  (* let time pass: dirty lines reach DRAM *)
  Pl310.flush_masked (Machine.l2 machine);
  Sentry.mark_sensitive sentry app;
  Sentry.enable_background sentry app;
  let dram = Dram.raw (Machine.dram machine) in
  Printf.printf "mail app running; secret in DRAM: %b\n" (Bytes_util.contains dram secret);
  let stats = Sentry.lock sentry in
  Printf.printf "LOCKED: %d pages encrypted in %s; secret in DRAM: %b\n"
    stats.Encrypt_on_lock.pages_encrypted
    (Units.to_string Units.pp_time stats.Encrypt_on_lock.elapsed_ns)
    (Bytes_util.contains dram secret);
  let data = Vm.read system.System.vm app ~vaddr:region.Address_space.vstart ~len:16 in
  Printf.printf "background read while locked: %S; secret in DRAM: %b\n"
    (Bytes.to_string data)
    (Bytes_util.contains dram secret);
  (match Sentry.unlock sentry ~pin:"0000" with
  | Error Lock_state.Bad_pin -> print_endline "wrong PIN rejected"
  | _ -> print_endline "unexpected");
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok s ->
      Printf.printf "UNLOCKED (eager DMA pages: %d); lazy decryption from here on\n"
        s.Decrypt_on_unlock.dma_pages_eager
  | Error _ -> print_endline "unlock failed");
  let data = Vm.read system.System.vm app ~vaddr:region.Address_space.vstart ~len:16 in
  Printf.printf "read after unlock: %S\n" (Bytes.to_string data)

let demo_cmd =
  let doc = "walk through a lock / background / unlock cycle" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo $ const ())

(* ----------------------------- analyze --------------------------- *)

let analyze platform fault matrix =
  let open Sentry_analysis in
  let platform =
    match platform with
    | "tegra3" -> `Tegra3
    | "nexus4" -> `Nexus4
    | "future" -> `Future
    | p ->
        Printf.eprintf "unknown platform %S (tegra3|nexus4|future)\n" p;
        exit 1
  in
  let fault =
    match fault with
    | "none" -> Scenario.No_fault
    | f -> (
        match List.find_opt (fun x -> Scenario.fault_name x = f) Scenario.faults with
        | Some x -> x
        | None ->
            Printf.eprintf "unknown fault %S (none|%s)\n" f
              (String.concat "|" (List.map Scenario.fault_name Scenario.faults));
            exit 1)
  in
  let r = Scenario.run ~fault platform in
  Printf.printf "secret-flow analysis: platform=%s fault=%s\n%s"
    (match platform with `Tegra3 -> "tegra3" | `Nexus4 -> "nexus4" | `Future -> "future")
    (Scenario.fault_name fault)
    (Engine.report r.Scenario.engine);
  let scenario_ok =
    match Scenario.expected_checker fault with
    | None -> r.Scenario.violations = []
    | Some name ->
        Printf.printf "expected checker %s: %s\n" name
          (if Scenario.tripped_expected r then "tripped" else "NOT TRIPPED");
        Scenario.tripped_expected r
  in
  let matrix_ok =
    if not matrix then true
    else begin
      print_string (Verdict_check.report ());
      Verdict_check.agrees ()
    end
  in
  if not (scenario_ok && matrix_ok) then exit 1

let analyze_cmd =
  let doc = "verify secret-flow invariants over the canned lock/unlock scenario" in
  let platform =
    Arg.(value & opt string "tegra3" & info [ "platform" ] ~docv:"PLATFORM" ~doc:"tegra3|nexus4|future")
  in
  let fault =
    Arg.(
      value & opt string "none"
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:"inject a protection fault and confirm the matching checker flags it")
  in
  let matrix =
    Arg.(value & flag & info [ "matrix" ] ~doc:"also cross-check taint verdicts against the Table 3 attack matrix")
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze $ platform $ fault $ matrix)

(* ------------------------------ trace ---------------------------- *)

let platform_of_string = function
  | "tegra3" -> `Tegra3
  | "nexus4" -> `Nexus4
  | "future" -> `Future
  | p ->
      Printf.eprintf "unknown platform %S (tegra3|nexus4|future)\n" p;
      exit 1

let trace scenario platform chrome jsonl folded metrics capacity top list_categories =
  let open Sentry_obs in
  if list_categories then begin
    Printf.printf "categories:\n";
    List.iter (fun c -> Printf.printf "  %s\n" (Event.category_name c)) Event.categories;
    Printf.printf "subsystems:\n";
    List.iter (fun s -> Printf.printf "  %s\n" s) Event.known_subsystems
  end
  else begin
    let scenario =
      match Trace_scenario.of_string scenario with
      | Some s -> s
      | None ->
          Printf.eprintf "unknown scenario %S (%s)\n" scenario
            (String.concat "|" (List.map Trace_scenario.name_to_string Trace_scenario.all));
          exit 1
    in
    let platform = platform_of_string platform in
    (* an explicit recorder handle: installed as ambient for the
       emitters, but read back through the handle after uninstall *)
    let recorder = Trace.Recorder.create ~capacity () in
    Trace.install recorder;
    let r = Trace_scenario.run scenario platform in
    Trace.uninstall ();
    let events = Trace.Recorder.events recorder in
    let stats = Trace.Recorder.stats recorder in
    Printf.printf "scenario %s on %s: %d events recorded (%d dropped)\n"
      (Trace_scenario.name_to_string scenario)
      (Machine.config (System.machine r.Trace_scenario.system)).Machine.name
      stats.Trace.emitted stats.Trace.dropped;
    List.iter
      (fun (cat, n) -> Printf.printf "  %-10s %d\n" (Event.category_name cat) n)
      (Trace.Recorder.category_counts recorder);
    let write what path contents =
      Export.write_file ~path contents;
      Printf.printf "wrote %s to %s\n" what path
    in
    Option.iter
      (fun path -> write "Chrome trace" path (Export.chrome_trace_string events))
      chrome;
    Option.iter (fun path -> write "event JSONL" path (Export.jsonl events)) jsonl;
    Option.iter (fun path -> write "folded stacks" path (Export.folded events)) folded;
    Option.iter
      (fun path ->
        write "metrics" path
          (Export.metrics_jsonl (Obs_report.flat ~recorder r.Trace_scenario.sentry)))
      metrics;
    if top > 0 then print_string (Export.top_spans_table (Export.top_spans ~limit:top events))
  end

let trace_cmd =
  let doc = "record a canned scenario and export traces / metrics" in
  let scenario =
    Arg.(value & pos 0 string "lock-cycle" & info [] ~docv:"SCENARIO" ~doc:"lock-cycle|dm-crypt-io")
  in
  let platform =
    Arg.(value & opt string "tegra3" & info [ "platform" ] ~docv:"PLATFORM" ~doc:"tegra3|nexus4|future")
  in
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"write a Chrome trace_event JSON (Perfetto / chrome://tracing)")
  in
  let jsonl =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"write raw events, one JSON object per line")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"write folded stacks (one 'frame;frame self_ns' line per unique span stack; flamegraph.pl input)")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"write the flat metrics report, one {key,value} per line")
  in
  let capacity =
    Arg.(value & opt int 65536 & info [ "capacity" ] ~docv:"N" ~doc:"trace ring capacity (events)")
  in
  let top =
    Arg.(value & opt int 0 & info [ "top" ] ~docv:"N"
           ~doc:"print the N spans with the largest self time (0 = off)")
  in
  let list_categories =
    Arg.(value & flag & info [ "list-categories" ] ~doc:"print event categories and known subsystems, then exit")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace $ scenario $ platform $ chrome $ jsonl $ folded $ metrics $ capacity $ top
          $ list_categories)

(* ----------------------------- faults ---------------------------- *)

let faults plan_name platform variant backend list_plans =
  let open Sentry_analysis in
  if list_plans then
    List.iter
      (fun (name, plan) -> Printf.printf "  %-22s %s\n" name (Sentry_faults.Plan.describe plan))
      Fault_scenario.plans
  else begin
    let platform = platform_of_string platform in
    let backend = resolve_backend backend in
    let variant =
      match variant with
      | "warm" -> Sentry_attacks.Cold_boot.Os_reboot
      | "reflash" -> Sentry_attacks.Cold_boot.Device_reflash
      | "reset" -> Sentry_attacks.Cold_boot.Two_second_reset
      | v ->
          Printf.eprintf "unknown cold-boot variant %S (warm|reflash|reset)\n" v;
          exit 1
    in
    let plans =
      if plan_name = "all" then Fault_scenario.plans
      else
        match Fault_scenario.find_plan plan_name with
        | Some p -> [ (plan_name, p) ]
        | None ->
            Printf.eprintf "unknown plan %S (all|%s)\n" plan_name
              (String.concat "|" Fault_scenario.plan_names);
            exit 1
    in
    let ok =
      List.for_all
        (fun (name, plan) ->
          let o = Fault_scenario.run ~platform ~variant ~backend plan in
          Printf.printf "plan %s: %s\n" name (Sentry_faults.Plan.describe plan);
          List.iter
            (fun (r : Sentry_faults.Injector.record) ->
              Printf.printf "  fired %s at %s (arrival %d)\n"
                (Sentry_faults.Fault.name r.Sentry_faults.Injector.kind)
                r.Sentry_faults.Injector.point r.Sentry_faults.Injector.occurrence)
            o.Fault_scenario.fired;
          if o.Fault_scenario.fired = [] then print_endline "  (no trigger fired)";
          (match o.Fault_scenario.recovery with
          | Some r ->
              Printf.printf "  recovery: %s, %d pages fixed%s%s\n"
                (match r.Sentry.resumed with
                | Sentry.Resumed_lock -> "lock rolled forward"
                | Sentry.Rolled_back_unlock -> "unlock rolled back")
                r.Sentry.pages_fixed
                (if r.Sentry.rekeyed then ", volatile key regenerated" else "")
                (if r.Sentry.journal_entry <> None then " (journal survived)" else "")
          | None ->
              if o.Fault_scenario.crashed then print_endline "  recovery: none ran"
              else print_endline "  no crash: lock completed normally");
          List.iter
            (fun v -> Printf.printf "  VIOLATION %s\n" (Checker.violation_to_string v))
            o.Fault_scenario.violations;
          Printf.printf "  locked=%b inconsistencies=%d secret_recovered=%b -> %s\n" o.Fault_scenario.locked
            o.Fault_scenario.inconsistencies o.Fault_scenario.secret_recovered
            (if Fault_scenario.survived o then "SURVIVED" else "FAILED");
          Fault_scenario.survived o)
        plans
    in
    if not ok then exit 1
  end

let faults_cmd =
  let doc = "replay a fault-injection plan against the lock pipeline and report the verdict" in
  let plan =
    Arg.(value & opt string "power-loss-mid-lock"
         & info [ "plan" ] ~docv:"PLAN" ~doc:"canned plan name, or 'all' (see --list)")
  in
  let platform =
    Arg.(value & opt string "nexus4" & info [ "platform" ] ~docv:"PLATFORM" ~doc:"tegra3|nexus4|future")
  in
  let variant =
    Arg.(value & opt string "reset"
         & info [ "variant" ] ~docv:"VARIANT" ~doc:"cold-boot attack mounted after recovery: warm|reflash|reset")
  in
  let list_plans = Arg.(value & flag & info [ "list" ] ~doc:"print the canned plans, then exit") in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(const faults $ plan $ platform $ variant $ backend_arg $ list_plans)

(* ----------------------------- attack ---------------------------- *)

let attack variant protect =
  let system = System.boot `Tegra3 ~seed:7 in
  let machine = System.machine system in
  let secret = Bytes.of_string "CREDIT-CARD-4242424242424242" in
  let app = System.spawn system ~name:"wallet" ~bytes:(64 * Units.kib) in
  let region = List.hd (Address_space.regions app.Process.aspace) in
  System.fill_region system app region secret;
  (* let time pass: dirty lines reach DRAM *)
  Pl310.flush_masked (Machine.l2 machine);
  if protect then begin
    let sentry = Sentry.install system (Config.default `Tegra3) in
    Sentry.mark_sensitive sentry app;
    ignore (Sentry.lock sentry);
    print_endline "Sentry installed; device locked."
  end
  else print_endline "No protection (device merely PIN-locked).";
  let found =
    match variant with
    | "warm" -> Sentry_attacks.Cold_boot.succeeds machine Sentry_attacks.Cold_boot.Os_reboot ~secret
    | "reflash" ->
        Sentry_attacks.Cold_boot.succeeds machine Sentry_attacks.Cold_boot.Device_reflash ~secret
    | "reset" ->
        Sentry_attacks.Cold_boot.succeeds machine Sentry_attacks.Cold_boot.Two_second_reset ~secret
    | "dma" -> Sentry_attacks.Dma_attack.succeeds machine ~secret
    | v ->
        Printf.eprintf "unknown attack variant %S (warm|reflash|reset|dma)\n" v;
        exit 1
  in
  Printf.printf "Attack '%s' mounted: secret %s\n" variant
    (if found then "RECOVERED (device compromised)" else "not found (defence held)")

let attack_cmd =
  let doc = "mount a memory attack against the simulated device" in
  let variant =
    Arg.(value & opt string "reflash" & info [ "variant" ] ~docv:"VARIANT" ~doc:"warm|reflash|reset|dma")
  in
  let protect =
    Arg.(value & flag & info [ "sentry" ] ~doc:"protect the device with Sentry before attacking")
  in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const attack $ variant $ protect)

(* ----------------------------- fleet ----------------------------- *)

let fleet procs pages cycles wakes io touch backend (shards, domains) json folded =
  let open Sentry_obs in
  let module F = Sentry_workloads.Fleet in
  let module Shard = Sentry_workloads.Shard in
  let cfg =
    {
      F.procs;
      pages_per_proc = pages;
      cycles;
      touch_fraction = touch;
      service_wakes = wakes;
      io_sectors = io;
      backend = resolve_backend backend;
    }
  in
  (* only pay for tracing when the folded-stacks export was asked for:
     installing a recorder here opts the shards into per-shard
     recorders, merged deterministically afterwards *)
  Option.iter (fun _ -> Trace.install (Trace.Recorder.create ~capacity:65536 ())) folded;
  let sh = F.run_sharded ?shards ~domains cfg in
  Trace.uninstall ();
  let s = sh.F.merged and run = sh.F.shards in
  (match (folded, run.Shard.merged_recorder) with
  | Some path, Some r ->
      Export.write_file ~path (Export.folded (Trace.Recorder.events r));
      Printf.printf "wrote folded stacks to %s\n" path
  | _ -> ());
  if json then begin
    let latency_json (cls, (l : F.latency)) =
      ( cls,
        Json_out.Obj
          [
            ("count", Json_out.Int l.F.count);
            ("mean_ns", Json_out.Float l.F.mean_ns);
            ("p50_ns", Json_out.Float l.F.p50_ns);
            ("p99_ns", Json_out.Float l.F.p99_ns);
            ("p999_ns", Json_out.Float l.F.p999_ns);
            ("max_ns", Json_out.Float l.F.max_ns);
          ] )
    in
    let doc =
      Json_out.Obj
        [
          ("domains", Json_out.Int run.Shard.domains);
          ("shards", Json_out.Int (List.length run.Shard.plan));
          ("wall_s", Json_out.Float run.Shard.wall_s);
          ("procs", Json_out.Int procs);
          ("pages_per_proc", Json_out.Int pages);
          ("cycles", Json_out.Int cycles);
          ("backend", Json_out.Str (F.backend_label cfg.F.backend));
          ("fleet_pages", Json_out.Int s.F.fleet_pages);
          ("pages_locked", Json_out.Int s.F.pages_locked);
          ("pages_unlocked_eager", Json_out.Int s.F.pages_unlocked_eager);
          ("pages_faulted", Json_out.Int s.F.pages_faulted);
          ("service_wakes", Json_out.Int s.F.service_wakes_run);
          ("io_sectors", Json_out.Int s.F.io_sectors_done);
          ("lock_wall_s", Json_out.Float s.F.lock_wall_s);
          ("unlock_wall_s", Json_out.Float s.F.unlock_wall_s);
          ("lock_pages_per_s", Json_out.Float s.F.lock_pages_per_s);
          ("unlock_to_first_touch_ns", Json_out.Float s.F.unlock_to_first_touch_ns);
          ("unlock_to_first_touch_by_class", Json_out.Obj (List.map latency_json s.F.latency_by_class));
          ("sim_elapsed_ns", Json_out.Float s.F.sim_elapsed_ns);
          ("energy_j", Json_out.Float s.F.energy_j);
        ]
    in
    print_endline (Json_out.to_string doc)
  end
  else Format.printf "%a@." F.pp_sharded sh

let fleet_cmd =
  let doc = "run the multi-tenant fleet churn workload" in
  let procs =
    Arg.(value & opt int 8 & info [ "procs" ] ~docv:"N" ~doc:"sensitive processes in the fleet")
  in
  let pages =
    Arg.(value & opt int 16 & info [ "pages" ] ~docv:"M" ~doc:"pages per process main region")
  in
  let cycles =
    Arg.(value & opt int 3 & info [ "cycles" ] ~docv:"C" ~doc:"lock/unlock churn cycles")
  in
  let wakes =
    Arg.(value & opt int 1 & info [ "wakes" ] ~docv:"W" ~doc:"background service wakes per locked period")
  in
  let io =
    Arg.(value & opt int 8 & info [ "io" ] ~docv:"SECTORS" ~doc:"dm-crypt sectors written+read per wake")
  in
  let touch =
    Arg.(value & opt float 0.25 & info [ "touch" ] ~docv:"FRAC" ~doc:"fraction of pages faulted in after unlock")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"machine-readable output") in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"trace the run and write folded stacks (flamegraph.pl input)")
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(const fleet $ procs $ pages $ cycles $ wakes $ io $ touch $ backend_arg $ shards_arg
          $ json $ folded)

(* ----------------------------- serve ----------------------------- *)

let serve tenants pages rate burst duration queue_depth backlog batch seed soak soak_period
    backend (shards, domains) json =
  let module Sv = Sentry_serve.Server in
  let cfg =
    {
      Sv.tenants;
      pages_per_proc = pages;
      rate_hz = rate;
      burst;
      duration_s = duration;
      queue_depth;
      backlog_pages_max = backlog;
      batch_max = batch;
      seed;
      soak;
      soak_period;
      backend = resolve_backend backend;
    }
  in
  let sh = Sv.run_sharded ?shards ~domains cfg in
  let stats = sh.Sv.merged in
  if json then print_endline (Sentry_obs.Json_out.to_string (Sv.json stats))
  else begin
    Format.printf "%a@." Sv.pp_sharded sh;
    if stats.Sv.audit_findings > 0 then
      Printf.printf "WARNING: %d post-recovery consistency finding(s)\n" stats.Sv.audit_findings
  end;
  (* soak contract: the run only counts as surviving chaos if crashes
     actually fired, every one recovered, and the audit stayed clean *)
  if
    soak
    && (stats.Sv.crashes_injected = 0
       || stats.Sv.recoveries <> stats.Sv.crashes_injected
       || stats.Sv.audit_findings > 0)
  then exit 1

let serve_cmd =
  let doc = "run the open-loop lock/unlock server (admission backpressure, optional chaos soak)" in
  let tenants =
    Arg.(value & opt int 8 & info [ "tenants" ] ~docv:"N" ~doc:"tenant pool size (fleet class mix)")
  in
  let pages =
    Arg.(value & opt int 8 & info [ "pages" ] ~docv:"M" ~doc:"pages per medium tenant main region")
  in
  let rate =
    Arg.(value & opt float 40.0 & info [ "rate" ] ~docv:"HZ" ~doc:"base Poisson arrival rate (simulated Hz)")
  in
  let burst =
    Arg.(value & opt float 3.0 & info [ "burst" ] ~docv:"X" ~doc:"peak-quarter rate multiplier (diurnal profile)")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"S" ~doc:"simulated arrival-generation span (seconds)")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"D" ~doc:"admission FIFO depth (overflow sheds)")
  in
  let backlog =
    Arg.(value & opt int 512 & info [ "backlog-pages" ] ~docv:"P"
           ~doc:"pending page backlog cap (journal/iRAM saturation rejects)")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc:"requests served per unlock/lock cycle")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"schedule / system PRNG seed") in
  let soak =
    Arg.(value & flag & info [ "soak" ] ~doc:"chaos soak: inject a lock-walk crash into every \
                                              $(b,--soak-period)th re-lock and recover mid-traffic")
  in
  let soak_period =
    Arg.(value & opt int 4 & info [ "soak-period" ] ~docv:"K" ~doc:"crash every Kth batch when soaking")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"machine-readable output (deterministic fields only)") in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve $ tenants $ pages $ rate $ burst $ duration $ queue_depth $ backlog $ batch
          $ seed $ soak $ soak_period $ backend_arg $ shards_arg $ json)

(* ------------------------------ slo ------------------------------ *)

let slo spec procs pages cycles wakes io touch backend (shards, domains) json =
  let open Sentry_obs in
  let module F = Sentry_workloads.Fleet in
  match Slo.load ~path:spec with
  | Error msg ->
      Printf.eprintf "slo: %s\n" msg;
      exit 2
  | Ok objectives ->
      let cfg =
        {
          F.procs;
          pages_per_proc = pages;
          cycles;
          touch_fraction = touch;
          service_wakes = wakes;
          io_sectors = io;
          backend = resolve_backend backend;
        }
      in
      (* the gate runs over the run's merged registries: the
         one-machine fleet and serve without --domains, the default
         shard plan's (the same snapshot for every D) with it.  The
         serve workload rides along in the same snapshot so the
         queue-wait and shed-rate objectives are gated by the same
         invocation. *)
      let module Sv = Sentry_serve.Server in
      let module Shard = Sentry_workloads.Shard in
      let fleet_metrics = (F.run_sharded ?shards ~domains cfg).F.shards.Shard.merged_metrics in
      let serve_metrics = (Sv.run_sharded ?shards ~domains Sv.default).Sv.shards.Shard.merged_metrics in
      let flat = Metrics.flat (Metrics.merge fleet_metrics serve_metrics) in
      let report = Slo.evaluate objectives flat in
      Format.printf "%a@." Slo.pp_report report;
      Option.iter
        (fun path ->
          Export.write_file ~path (Json_out.to_string (Slo.report_json report) ^ "\n");
          Printf.printf "wrote SLO report to %s\n" path)
        json;
      if not (Slo.ok report) then exit 1

let slo_cmd =
  let doc = "run the fleet workload and gate its latency distributions against an SLO spec" in
  let spec =
    Arg.(value & opt string "slo.spec"
         & info [ "spec" ] ~docv:"FILE" ~doc:"objective spec: 'KEY [STAT] <=|>= THRESHOLD' lines")
  in
  let procs = Arg.(value & opt int 8 & info [ "procs" ] ~docv:"N" ~doc:"sensitive processes in the fleet") in
  let pages = Arg.(value & opt int 16 & info [ "pages" ] ~docv:"M" ~doc:"pages per medium tenant") in
  let cycles = Arg.(value & opt int 3 & info [ "cycles" ] ~docv:"C" ~doc:"lock/unlock churn cycles") in
  let wakes =
    Arg.(value & opt int 1 & info [ "wakes" ] ~docv:"W" ~doc:"background service wakes per locked period")
  in
  let io =
    Arg.(value & opt int 8 & info [ "io" ] ~docv:"SECTORS" ~doc:"dm-crypt sectors written+read per wake")
  in
  let touch =
    Arg.(value & opt float 0.25 & info [ "touch" ] ~docv:"FRAC" ~doc:"fraction of pages faulted in after unlock")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"also write the report as JSON")
  in
  Cmd.v (Cmd.info "slo" ~doc)
    Term.(const slo $ spec $ procs $ pages $ cycles $ wakes $ io $ touch $ backend_arg
          $ shards_arg $ json)

let () =
  let doc = "Sentry: on-SoC protection against memory attacks (simulator)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sentry-cli" ~doc)
          [
            list_cmd; exp_cmd; demo_cmd; attack_cmd; analyze_cmd; trace_cmd; faults_cmd; fleet_cmd;
            serve_cmd; slo_cmd;
          ]))
