(* Self-test of the benchmark: span arithmetic on a synthetic tree, the
   metric names against BENCHMARK.json, and one short traced run of
   every workload at seed 7 with the simulated-output pins checked. *)

open Perfbench
module Json_in = Sentry_obs.Json_in

let span ~id ~parent ~name t0 t1 =
  { Span.id; parent; name; domain = 0; t0; t1; words = 0.0; items = 0 }

(* iter [0,100] holds lock [10,40] (itself holding aes [15,20]), touch
   [30,70] overlapping lock as a span on another domain would, and
   shard [90,120] running past its parent's end; setup is a second
   root. *)
let tree =
  [
    span ~id:1 ~parent:0 ~name:"bench.iter" 0 100;
    span ~id:2 ~parent:1 ~name:"core.lock" 10 40;
    span ~id:3 ~parent:1 ~name:"kernel.touch" 30 70;
    span ~id:4 ~parent:2 ~name:"crypto.aes" 15 20;
    span ~id:5 ~parent:1 ~name:"bench.shard" 90 120;
    span ~id:6 ~parent:0 ~name:"bench.setup" 200 210;
    span ~id:7 ~parent:6 ~name:"core.boot" 201 209;
  ]

let test_self_time () =
  let self = List.map (fun ((s : Span.span), t) -> (s.name, t)) (Span.with_self tree) in
  Alcotest.(check (list (pair string int)))
    "self = duration - union of children"
    [
      ("bench.iter", 30);
      ("core.lock", 25);
      ("kernel.touch", 40);
      ("crypto.aes", 5);
      ("bench.shard", 30);
      ("bench.setup", 2);
      ("core.boot", 8);
    ]
    self;
  let iter = Span.subtrees ~keep:(fun s -> s.Span.name = "bench.iter") tree in
  Alcotest.(check (list int)) "subtree of the iteration root" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (s : Span.span) -> s.id) iter);
  Alcotest.(check (float 1e-12)) "covered = library self / all self" (70.0 /. 130.0)
    (Span.covered_frac iter);
  Alcotest.(check (list string))
    "folded stacks"
    [
      "bench.iter 30";
      "bench.iter;bench.shard 30";
      "bench.iter;core.lock 25";
      "bench.iter;core.lock;crypto.aes 5";
      "bench.iter;kernel.touch 40";
    ]
    (String.split_on_char '\n' (Span.folded iter))

let test_recorder () =
  let r = Span.create () in
  let v =
    Span.run (Span.root r) "bench.iter" (fun ctx ->
        Span.run ctx "core.lock" ~items:(fun n -> n) (fun _ -> 3)
        + Span.run Span.Off "core.unlock" (fun _ -> 4))
  in
  Alcotest.(check int) "value passes through" 7 v;
  match Span.spans r with
  | [ outer; inner ] ->
      Alcotest.(check (list string))
        "names" [ "bench.iter"; "core.lock" ] [ outer.name; inner.name ];
      Alcotest.(check int) "parent link" outer.id inner.parent;
      Alcotest.(check int) "items" 3 inner.items;
      let dir = "selftest-trace" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Span.write_all ~dir (Span.spans r);
      let path = Filename.concat dir "trace.json" in
      ignore (Json_in.parse (In_channel.with_open_bin path In_channel.input_all))
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let benchmark_json =
  lazy (Json_in.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

(* The [field] of every entry of BENCHMARK.json's list [key]. *)
let declared key field =
  let get f j = Option.get (f j) in
  get (fun j -> Option.bind (Json_in.member key j) Json_in.to_list) (Lazy.force benchmark_json)
  |> List.map (get (fun j -> Option.bind (Json_in.member field j) Json_in.to_string))

let test_declared () =
  let names l = List.map fst l in
  let same what ours key field =
    Alcotest.(check (list string)) what ours (declared key field)
  in
  same "workloads" (names Suite.workloads) "workloads" "name";
  same "end_to_end names" (names Suite.end_to_end) "end_to_end" "name";
  same "end_to_end units" (List.map snd Suite.end_to_end) "end_to_end" "unit";
  same "per_layer names" (names Suite.per_layer) "per_layer" "name";
  same "per_layer units" (List.map snd Suite.per_layer) "per_layer" "unit"

let test_workload name () =
  let r = Suite.run ~setup_reps:1 ~workload:name ~seed:7 ~seconds:0.0 ~trace:true () in
  List.iter print_endline r.notes;
  Alcotest.(check bool) "correct, pins matched" true r.correct;
  Alcotest.(check int) "failed" 0 r.failed;
  let emitted ms = List.map (fun (m, u, _) -> (m, u)) ms in
  let metrics = Alcotest.(list (pair string string)) in
  Alcotest.check metrics "end-to-end metrics" Suite.end_to_end (emitted r.end_to_end);
  Alcotest.check metrics "per-layer metrics" Suite.per_layer (emitted r.per_layer);
  List.iter
    (fun (m, _, v) -> if not (Float.is_finite v) then Alcotest.failf "%s is not finite" m)
    (r.end_to_end @ r.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("declared", [ Alcotest.test_case "BENCHMARK.json lists" `Quick test_declared ]);
      ( "workloads",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_workload name))
          Suite.workloads );
    ]
