open Sentry_soc
open Sentry_core
open Sentry_analysis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------ Taint ----------------------------- *)

let test_taint_lattice () =
  let open Taint in
  checkb "join secret" true (join Ciphertext Secret_cleartext = Secret_cleartext);
  checkb "join public" true (join Public Public = Public);
  checkb "join sym" true (join Ciphertext Public = join Public Ciphertext);
  checkb "rank order" true (rank Public < rank Ciphertext && rank Ciphertext < rank Secret_cleartext);
  List.iter (fun l -> checkb "char roundtrip" true (of_char (to_char l) = l))
    [ Public; Ciphertext; Secret_cleartext ]

let test_taint_runs () =
  let sh = Taint.create_shadow 16 in
  Taint.fill sh 2 3 Taint.Secret_cleartext;
  Taint.fill sh 10 4 Taint.Secret_cleartext;
  Alcotest.(check (list (pair int int))) "runs" [ (2, 3); (10, 4) ]
    (Taint.runs sh ~level:Taint.Secret_cleartext);
  checkb "max_range" true (Taint.max_range sh 0 16 = Taint.Secret_cleartext);
  checkb "window exact" true
    (Taint.fuzzy_window sh ~level:Taint.Secret_cleartext ~len:3 ~min_match:1.0);
  checkb "window too wide" false
    (Taint.fuzzy_window sh ~level:Taint.Secret_cleartext ~len:8 ~min_match:0.9)

(* -------------------------- Propagation --------------------------- *)

let boot_tainted () =
  let system = System.boot `Tegra3 ~seed:7 in
  let m = System.machine system in
  Machine.enable_taint m;
  (system, m)

let frame system = Sentry_kernel.Frame_alloc.alloc system.System.frames

let test_ambient_taint_through_cache () =
  let system, m = boot_tainted () in
  let addr = frame system in
  let blob = Bytes.make 64 's' in
  Machine.with_taint m Taint.Secret_cleartext (fun () -> Machine.write m addr blob);
  checkb "cached write tainted" true (Machine.taint_of m addr 64 = Taint.Secret_cleartext);
  (* force the dirty line out: the DRAM shadow must inherit it *)
  Pl310.flush_masked (Machine.l2 m);
  Pl310.invalidate_range (Machine.l2 m) addr 64;
  checkb "taint survives writeback" true (Machine.taint_of m addr 64 = Taint.Secret_cleartext);
  (* ... and a re-fill brings it back into the line shadow *)
  ignore (Machine.read m addr 64);
  checkb "taint survives refill" true (Machine.taint_of m addr 64 = Taint.Secret_cleartext)

let test_relabel_on_encrypt () =
  let system, m = boot_tainted () in
  let addr = frame system in
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      Machine.write m addr (Bytes.make 64 's'));
  Machine.with_taint m Taint.Ciphertext (fun () -> Machine.write m addr (Bytes.make 64 'c'));
  checkb "ciphertext overwrote" true (Machine.taint_of m addr 64 = Taint.Ciphertext);
  Machine.write m addr (Bytes.make 64 'p');
  checkb "public overwrote" true (Machine.taint_of m addr 64 = Taint.Public)

let test_write_raw_uses_ambient () =
  let system, m = boot_tainted () in
  let addr = frame system in
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      Machine.write_raw m addr (Bytes.make 32 's'));
  checkb "raw write tainted" true (Machine.taint_of m addr 32 = Taint.Secret_cleartext)

let test_registers_carry_taint () =
  let _, m = boot_tainted () in
  let cpu = Machine.cpu m in
  Cpu.load_regs cpu ~taint:Taint.Secret_cleartext (Bytes.make 32 'k');
  checkb "loaded" true (Cpu.reg_taint cpu = Taint.Secret_cleartext);
  Cpu.onsoc_enable_irq cpu;
  checkb "scrubbed" true (Cpu.reg_taint cpu = Taint.Public);
  Cpu.set_zeroing_enabled cpu false;
  Cpu.load_regs cpu ~taint:Taint.Secret_cleartext (Bytes.make 32 'k');
  Cpu.onsoc_enable_irq cpu;
  checkb "fault keeps taint" true (Cpu.reg_taint cpu = Taint.Secret_cleartext)

let test_key_writes_are_tagged () =
  let system = System.boot `Tegra3 ~seed:9 in
  let config = { (Config.default `Tegra3) with Config.track_taint = true } in
  let _sentry = Sentry.install system config in
  let m = System.machine system in
  (* the root key lives in locked L2: its line shadow must be secret *)
  let found = ref false in
  Pl310.iter_resident (Machine.l2 m) (fun ~way:_ ~addr _store ~off:_ ->
      if Pl310.taint_range (Machine.l2 m) addr 16 = Taint.Secret_cleartext then found := true);
  checkb "key tagged secret somewhere on-SoC" true !found

(* The root-key checker searches each resident line in place: a key
   planted inside one line of an unlocked way is reported with that way
   and the line's address; a copy straddling two lines is not (the
   match is per line). *)
let test_root_key_in_unlocked_way () =
  let system = System.boot `Tegra3 ~seed:9 in
  let config = { (Config.default `Tegra3) with Config.track_taint = true } in
  let sentry = Sentry.install system config in
  let m = System.machine system and l2 = Machine.l2 (System.machine system) in
  let key = Key_manager.volatile_key (Sentry.key_manager sentry) in
  let line = Pl310.line_size l2 in
  checkb "key fits in a line" true (Bytes.length key <= line);
  let addr = frame system in
  Machine.write m (addr + line) key;
  Machine.write m (addr + (4 * line) - 3) key (* straddles two lines *);
  let way =
    match Pl310.lookup l2 (addr + line) with
    | Some w -> w
    | None -> Alcotest.fail "planted line not resident"
  in
  checkb "planted in an unlocked way" true (Pl310.lockdown l2 land (1 lsl way) = 0);
  let found =
    Checker.run_packed sentry Checker.On_demand (Checker.Packed (module Checkers.Root_key_confined))
  in
  Alcotest.(check (list string))
    "one finding, with way and line address"
    [ Printf.sprintf "volatile root key found in unlocked L2 way %d at 0x%08x" way (addr + line) ]
    (List.map (fun v -> v.Checker.message) found)

(* ------------------------- Scenario: clean ------------------------ *)

let test_clean_scenario platform () =
  let r = Scenario.run platform in
  checki "no violations" 0 (List.length r.Scenario.violations);
  checkb "events flowed" true (Engine.events_seen r.Scenario.engine > 0);
  checkb "pages were encrypted" true (r.Scenario.lock_stats.Encrypt_on_lock.pages_encrypted > 0)

(* ------------------------- Scenario: faults ----------------------- *)

let test_fault fault () =
  let r = Scenario.run ~fault (Scenario.fault_platform fault) in
  checkb "violations found" true (r.Scenario.violations <> []);
  checkb "expected checker tripped" true (Scenario.tripped_expected r)

let test_fault_names_precise () =
  (* each fault's violation list names the expected checker *)
  List.iter
    (fun fault ->
      let expected = Option.get (Scenario.expected_checker fault) in
      let r = Scenario.run ~fault (Scenario.fault_platform fault) in
      checkb (expected ^ " present") true
        (List.exists (fun v -> v.Checker.checker = expected) r.Scenario.violations))
    Scenario.faults

(* ------------------------ Engine plumbing ------------------------- *)

let test_engine_detach_stops_events () =
  let system = System.boot `Tegra3 ~seed:5 in
  let config = { (Config.default `Tegra3) with Config.track_taint = true } in
  let sentry = Sentry.install system config in
  let engine = Engine.attach sentry in
  let app = System.spawn system ~name:"a" ~bytes:8192 in
  Sentry.mark_sensitive sentry app;
  (match Sentry_kernel.Address_space.find_region app.Sentry_kernel.Process.aspace ~name:"main" with
  | Some region -> System.fill_region system app region (Bytes.of_string "traffic!")
  | None -> ());
  let seen_attached = Engine.events_seen engine in
  checkb "bus events observed" true (seen_attached > 0);
  Engine.detach engine;
  ignore (Sentry.lock sentry);
  checki "no events after detach" seen_attached (Engine.events_seen engine)

let test_violation_report_mentions_rule () =
  let r =
    Scenario.run ~fault:Scenario.Skip_register_clearing
      (Scenario.fault_platform Scenario.Skip_register_clearing)
  in
  let report = Engine.report r.Scenario.engine in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "report names rule" true (contains report "registers-clean-on-suspend")

(* ------------------------ Verdict cross-check --------------------- *)

let test_verdict_agreement () =
  let cells = Verdict_check.agreement () in
  checki "nine cells" 9 (List.length cells);
  List.iter
    (fun c ->
      checkb
        (Sentry_attacks.Verdict.attack_name c.Verdict_check.attack
        ^ " vs "
        ^ Sentry_attacks.Verdict.storage_name c.Verdict_check.storage)
        true (Verdict_check.cell_agrees c))
    cells

let () =
  Alcotest.run "analysis"
    [
      ( "taint",
        [
          Alcotest.test_case "lattice" `Quick test_taint_lattice;
          Alcotest.test_case "runs and windows" `Quick test_taint_runs;
          Alcotest.test_case "ambient through cache" `Quick test_ambient_taint_through_cache;
          Alcotest.test_case "relabel on encrypt" `Quick test_relabel_on_encrypt;
          Alcotest.test_case "write_raw ambient" `Quick test_write_raw_uses_ambient;
          Alcotest.test_case "register taint" `Quick test_registers_carry_taint;
          Alcotest.test_case "key writes tagged" `Quick test_key_writes_are_tagged;
          Alcotest.test_case "root key in unlocked way" `Quick test_root_key_in_unlocked_way;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "clean on tegra3" `Quick (test_clean_scenario `Tegra3);
          Alcotest.test_case "clean on nexus4" `Quick (test_clean_scenario `Nexus4);
          Alcotest.test_case "clean on future" `Quick (test_clean_scenario `Future);
          Alcotest.test_case "stock flush flagged" `Quick
            (test_fault Scenario.Stock_flush_while_locked);
          Alcotest.test_case "skipped reg clear flagged" `Quick
            (test_fault Scenario.Skip_register_clearing);
          Alcotest.test_case "skipped page barrier flagged" `Quick
            (test_fault Scenario.Skip_freed_page_barrier);
          Alcotest.test_case "widened DMA window flagged" `Quick
            (test_fault Scenario.Widen_dma_window);
          Alcotest.test_case "fault->checker mapping precise" `Quick test_fault_names_precise;
        ] );
      ( "engine",
        [
          Alcotest.test_case "detach stops events" `Quick test_engine_detach_stops_events;
          Alcotest.test_case "report names rule" `Quick test_violation_report_mentions_rule;
        ] );
      ("verdict", [ Alcotest.test_case "taint vs attacks agree" `Quick test_verdict_agreement ]);
    ]
