(** sentry_lint suite: each rule against a known-bad fixture with the
    {e exact} expected finding set, a known-clean file, cross-file R2
    resolution, allowlist suppression/staleness, and the JSON report.

    The fixtures live under [fixtures/] — a directory name
    [Driver.discover] skips, so the corpus never leaks into a lint of
    the real tree. *)

open Sentry_lint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let triple_list = Alcotest.(check (list (triple string string int)))

let fx name = Filename.concat "fixtures" name

let scan ?(r4_exempt = false) name =
  Rules.scan_file ~file:(fx name) ~r4_exempt (Driver.parse_file (fx name))

let corpus =
  [ "bad_r1.ml"; "bad_r2.ml"; "bad_r3.ml"; "bad_r4.ml"; "bad_r5.ml"; "clean.ml" ]
let run_corpus ?allow () = Driver.run ?allow ~roots:(List.map fx corpus) ()

(** (rule, symbol, line) — the full identity a fixture pins down. *)
let shape (f : Finding.t) = (Finding.rule_id f.Finding.rule, f.Finding.symbol, f.Finding.line)
let shapes fs = List.map shape (List.sort Finding.compare fs)

(* --------------------------- per-rule fixtures --------------------- *)

let test_r1_every_ctor_shape () =
  let s = scan "bad_r1.ml" in
  triple_list "exact R1 set"
    [ ("R1", "hits", 6); ("R1", "table", 7); ("R1", "scratch", 8); ("R1", "cfg", 9) ]
    (shapes s.Rules.findings);
  checki "one global per finding" 4 (List.length s.Rules.globals);
  (* the same-module writes in [bump] are not even R2 candidates *)
  checki "no cross-module assigns" 0 (List.length s.Rules.assigns)

let test_r2_needs_the_corpus () =
  let s = scan "bad_r2.ml" in
  triple_list "nothing resolvable in isolation" [] (shapes s.Rules.findings);
  checki "two candidates collected" 2 (List.length s.Rules.assigns);
  (* no R1 corpus, no findings: an assign to a non-global is fine *)
  checki "unresolved against empty corpus" 0
    (List.length (Rules.resolve_assigns ~globals:[] s.Rules.assigns))

let test_r3_both_spellings () =
  let s = scan "bad_r3.ml" in
  triple_list "exact R3 set" [ ("R3", "()", 4); ("R3", "_", 5) ] (shapes s.Rules.findings);
  List.iter
    (fun (f : Finding.t) ->
      checkb "R3 is a warning" true (Finding.severity f.Finding.rule = Finding.Warning))
    s.Rules.findings

let test_r4_and_fastpath_exemption () =
  let s = scan "bad_r4.ml" in
  triple_list "exact R4 set"
    [ ("R4", "Bytes.unsafe_get", 4); ("R4", "Obj.magic", 5) ]
    (shapes s.Rules.findings);
  let exempt = scan ~r4_exempt:true "bad_r4.ml" in
  triple_list "audited fast path: same file, no findings" [] (shapes exempt.Rules.findings)

let test_r5_spawned_closures () =
  let s = scan "bad_r5.ml" in
  triple_list "exact R5 set"
    [
      ("R5", "Trace.emit", 9);
      ("R5", "Injector.fire", 10);
      ("R5", "Trace.enter_span", 14);
      ("R5", "Trace.exit_span", 17);
    ]
    (shapes s.Rules.findings);
  (* install/activate-style setup and Recorder handles not flagged;
     the nested spawn reported exactly once *)
  checki "no globals" 0 (List.length s.Rules.globals);
  checki "no assigns" 0 (List.length s.Rules.assigns)

(* R6 needs the interface, its implementation and the outside caller:
   the exact set is the one export nobody outside [bad_r6.ml] names;
   [module type] and nested [sig] items are never candidates. *)
let test_r6_unreferenced_export () =
  let r = Driver.run ~roots:[ fx "bad_r6.mli"; fx "bad_r6.ml"; fx "uses_r6.ml" ] () in
  triple_list "exact R6 set" [ ("R6", "unused", 4) ] (shapes r.Driver.findings);
  checki "interface and implementations scanned" 3 r.Driver.files_scanned;
  List.iter
    (fun (f : Finding.t) ->
      checkb "R6 is a warning" true (Finding.severity f.Finding.rule = Finding.Warning))
    r.Driver.findings;
  (* without the outside caller, the module's own use is no reference *)
  let alone = Driver.run ~roots:[ fx "bad_r6.mli"; fx "bad_r6.ml" ] () in
  triple_list "own .ml does not count" [ ("R6", "used", 3); ("R6", "unused", 4) ]
    (shapes alone.Driver.findings)

let test_clean_file () =
  let s = scan "clean.ml" in
  triple_list "no findings" [] (shapes s.Rules.findings);
  checki "no globals (Atomic and literals are fine)" 0 (List.length s.Rules.globals);
  checki "no assigns" 0 (List.length s.Rules.assigns)

(* ----------------------------- the corpus -------------------------- *)

let expected_corpus =
  [
    ("R1", "hits", 6);
    ("R1", "table", 7);
    ("R1", "scratch", 8);
    ("R1", "cfg", 9);
    ("R2", "Bad_r1.hits", 5);
    ("R2", "Bad_r1.cfg", 6);
    ("R3", "()", 4);
    ("R3", "_", 5);
    ("R4", "Bytes.unsafe_get", 4);
    ("R4", "Obj.magic", 5);
    ("R5", "Trace.emit", 9);
    ("R5", "Injector.fire", 10);
    ("R5", "Trace.enter_span", 14);
    ("R5", "Trace.exit_span", 17);
  ]

let test_corpus_exact () =
  let r = run_corpus () in
  checki "all six files scanned" 6 r.Driver.files_scanned;
  triple_list "exact corpus findings" expected_corpus (shapes r.Driver.findings);
  checkb "not clean" false (Driver.clean r);
  checki "nothing allowlisted" 0 (List.length r.Driver.allowed)

let allow_of_string s =
  match Allowlist.parse_string s with
  | Ok a -> a
  | Error e -> Alcotest.failf "allowlist did not parse: %s" e

let test_allow_suppresses_exactly_one () =
  let allow = allow_of_string "R1 fixtures/bad_r1.ml hits # fixture exercise\n" in
  let r = run_corpus ~allow () in
  checki "one allowed" 1 (List.length r.Driver.allowed);
  checki "rest still violations" 13 (List.length r.Driver.unallowed);
  checkb "suppressed the right one" false
    (List.exists (fun f -> shape f = ("R1", "hits", 6)) r.Driver.unallowed);
  checki "no stale entries" 0 (List.length r.Driver.stale_allows)

let test_allow_everything_is_clean () =
  let text =
    expected_corpus
    |> List.map (fun (rule, symbol, _) ->
           let file =
             match rule with
             | "R1" -> "bad_r1.ml"
             | "R2" -> "bad_r2.ml"
             | "R3" -> "bad_r3.ml"
             | "R4" -> "bad_r4.ml"
             | _ -> "bad_r5.ml"
           in
           Printf.sprintf "%s fixtures/%s %s # blanket fixture grant" rule file symbol)
    |> String.concat "\n"
  in
  let r = run_corpus ~allow:(allow_of_string text) () in
  checkb "clean under a full grant" true (Driver.clean r);
  checki "all fourteen allowed" 14 (List.length r.Driver.allowed)

let test_stale_allow_reported () =
  let allow = allow_of_string "R1 fixtures/clean.ml ghost # long gone\n" in
  let r = run_corpus ~allow () in
  checki "stale entry surfaced" 1 (List.length r.Driver.stale_allows);
  checkb "and grants nothing" true (List.length r.Driver.unallowed = 14)

let test_justification_is_mandatory () =
  checkb "no justification, no parse" true
    (match Allowlist.parse_string "R1 fixtures/bad_r1.ml hits\n" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "unknown rule rejected" true
    (match Allowlist.parse_string "R9 foo.ml x # what\n" with
    | Error _ -> true
    | Ok _ -> false)

let test_json_report_shape () =
  let s = Driver.to_json_string (run_corpus ()) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "schema tag" true (contains "sentry-lint/v1");
  checkb "carries the rule ids" true (contains "\"R1\"" && contains "\"R4\"");
  checkb "violation total" true (contains "14")

let () =
  Alcotest.run "sentry_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 every ctor shape" `Quick test_r1_every_ctor_shape;
          Alcotest.test_case "R2 needs the corpus" `Quick test_r2_needs_the_corpus;
          Alcotest.test_case "R3 both spellings" `Quick test_r3_both_spellings;
          Alcotest.test_case "R4 and fast-path exemption" `Quick test_r4_and_fastpath_exemption;
          Alcotest.test_case "R5 spawned closures" `Quick test_r5_spawned_closures;
          Alcotest.test_case "R6 unreferenced export" `Quick test_r6_unreferenced_export;
          Alcotest.test_case "clean file" `Quick test_clean_file;
        ] );
      ( "driver",
        [
          Alcotest.test_case "corpus exact" `Quick test_corpus_exact;
          Alcotest.test_case "allow suppresses one" `Quick test_allow_suppresses_exactly_one;
          Alcotest.test_case "full grant is clean" `Quick test_allow_everything_is_clean;
          Alcotest.test_case "stale allow reported" `Quick test_stale_allow_reported;
          Alcotest.test_case "justification mandatory" `Quick test_justification_is_mandatory;
          Alcotest.test_case "json report shape" `Quick test_json_report_shape;
        ] );
    ]
