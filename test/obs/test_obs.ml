(** Observability-layer tests: ring semantics, metrics reductions,
    exporter output shape (checked with a small standalone JSON
    parser) and end-to-end trace determinism over the canned
    scenarios. *)

open Sentry_obs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ----------------------- a tiny JSON parser ----------------------- *)

(* Enough JSON to validate exporter output without a json dependency:
   objects, arrays, strings (with escapes), numbers, booleans, null. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' | '\\' | '/') ->
                Buffer.add_char b s.[!pos];
                advance ();
                go ()
            | Some 'n' ->
                Buffer.add_char b '\n';
                advance ();
                go ()
            | Some 't' ->
                Buffer.add_char b '\t';
                advance ();
                go ()
            | Some ('b' | 'f' | 'r') ->
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  advance ()
                done;
                Buffer.add_char b '?';
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "empty input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (elems [])
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

let with_fresh_trace ?capacity f =
  let r = Trace.Recorder.create ?capacity () in
  Trace.install r;
  Fun.protect ~finally:Trace.uninstall (fun () -> f r)

(* ------------------------------ trace ----------------------------- *)

let emit_n n =
  for i = 0 to n - 1 do
    Trace.emit
      ~ts:(float_of_int i)
      ~cat:Event.Bus ~subsystem:"soc.bus"
      ~args:[ ("i", Event.Int i) ]
      "tick"
  done

let test_trace_off_is_silent () =
  let r = Trace.Recorder.create () in
  Trace.install r;
  Trace.uninstall ();
  checkb "off" false (Trace.on ());
  Trace.emit ~cat:Event.Bus ~subsystem:"soc.bus" "ignored";
  checki "no events" 0 (List.length (Trace.Recorder.events r));
  checki "emitted" 0 (Trace.Recorder.stats r).Trace.emitted

let test_trace_records_in_order () =
  with_fresh_trace (fun r ->
      emit_n 5;
      let evs = Trace.Recorder.events r in
      checki "count" 5 (List.length evs);
      List.iteri
        (fun i (e : Event.t) ->
          checkf "ordered ts" (float_of_int i) e.Event.ts_ns;
          Alcotest.(check string) "subsystem" "soc.bus" e.Event.subsystem)
        evs)

let test_ring_overflow_keeps_newest () =
  with_fresh_trace ~capacity:8 (fun r ->
      emit_n 20;
      let s = Trace.Recorder.stats r in
      checki "emitted" 20 s.Trace.emitted;
      checki "dropped" 12 s.Trace.dropped;
      let evs = Trace.Recorder.events r in
      checki "retained = capacity" 8 (List.length evs);
      (* newest 8 survive: ts 12..19, oldest first *)
      List.iteri
        (fun i (e : Event.t) -> checkf "newest window" (float_of_int (12 + i)) e.Event.ts_ns)
        evs;
      (* per-category counts include dropped events *)
      match Trace.Recorder.category_counts r with
      | [ (Event.Bus, n) ] -> checki "category total" 20 n
      | _ -> Alcotest.fail "expected only Bus counts")

let test_trace_clear_keeps_recorder () =
  with_fresh_trace (fun r ->
      emit_n 3;
      Trace.Recorder.clear r;
      checkb "still on" true (Trace.on ());
      checki "empty" 0 (List.length (Trace.Recorder.events r)))

let test_span_duration () =
  with_fresh_trace (fun r ->
      Trace.span ~cat:Event.Crypto ~subsystem:"crypto.perf" ~start_ns:100.0 ~end_ns:350.0
        "op";
      match Trace.Recorder.events r with
      | [ e ] -> (
          checkf "start" 100.0 e.Event.ts_ns;
          match e.Event.phase with
          | Event.Complete d -> checkf "duration" 250.0 d
          | _ -> Alcotest.fail "expected Complete")
      | _ -> Alcotest.fail "expected one event")

(** The explicit-handle surface: recorders are values, the ambient
    install is just a pointer to one of them, and a recorder's ring
    stays readable after [uninstall]. *)
let test_recorder_handle_api () =
  let r1 = Trace.Recorder.create ~capacity:4 () in
  let r2 = Trace.Recorder.create () in
  checkb "nothing installed yet" true (Trace.installed () = None);
  Trace.install r1;
  checkb "compat on() sees the install" true (Trace.on ());
  emit_n 6;
  (* swap recorders mid-stream: emitters are oblivious *)
  Trace.install r2;
  emit_n 2;
  Trace.uninstall ();
  checkb "uninstalled" false (Trace.on ());
  let s1 = Trace.Recorder.stats r1 and s2 = Trace.Recorder.stats r2 in
  checki "r1 emitted" 6 s1.Trace.emitted;
  checki "r1 dropped to capacity" 2 s1.Trace.dropped;
  checki "r2 emitted" 2 s2.Trace.emitted;
  checki "r2 kept both" 2 (List.length (Trace.Recorder.events r2));
  (* direct emission onto a handle needs no install at all *)
  Trace.Recorder.emit r2 ~cat:Event.Lock ~subsystem:"t" "direct";
  checki "direct emit" 3 (Trace.Recorder.stats r2).Trace.emitted;
  checkb "bad capacity rejected" true
    (try
       ignore (Trace.Recorder.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

(* --------------------------- causal spans ------------------------- *)

let test_enter_exit_nesting () =
  let r = Trace.Recorder.create () in
  Trace.Recorder.enter_span r ~ts:10.0 ~cat:Event.Lock ~subsystem:"s" "outer";
  checki "depth 1" 1 (Trace.Recorder.open_depth r);
  Trace.Recorder.enter_span r ~ts:20.0 ~cat:Event.Crypto ~subsystem:"s" "inner";
  Trace.Recorder.emit r ~ts:25.0 ~cat:Event.Bus ~subsystem:"s" "tick";
  Trace.Recorder.exit_span r ~ts:30.0 ();
  Trace.Recorder.exit_span r ~ts:40.0 ~args:[ ("pages", Event.Int 3) ] ();
  checki "depth 0" 0 (Trace.Recorder.open_depth r);
  (* exiting with nothing open must not blow up mid-recovery *)
  Trace.Recorder.exit_span r ();
  match Trace.Recorder.events r with
  | [ tick; inner; outer ] ->
      (* the instant inside the inner span is parented to it *)
      checki "tick not a span" 0 tick.Event.span;
      checki "tick parent" 2 tick.Event.parent;
      checki "inner id" 2 inner.Event.span;
      checki "inner parent" 1 inner.Event.parent;
      checkf "inner start" 20.0 inner.Event.ts_ns;
      (match inner.Event.phase with
      | Event.Complete d -> checkf "inner dur" 10.0 d
      | _ -> Alcotest.fail "inner not Complete");
      checki "outer id" 1 outer.Event.span;
      checki "outer parent is root" 0 outer.Event.parent;
      (match outer.Event.phase with
      | Event.Complete d -> checkf "outer dur" 30.0 d
      | _ -> Alcotest.fail "outer not Complete");
      checkb "exit args land on the span" true (outer.Event.args = [ ("pages", Event.Int 3) ])
  | evs -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length evs))

let nested_span_events () =
  let r = Trace.Recorder.create () in
  Trace.Recorder.enter_span r ~ts:10.0 ~cat:Event.Lock ~subsystem:"s" "outer";
  Trace.Recorder.enter_span r ~ts:20.0 ~cat:Event.Crypto ~subsystem:"s" "inner";
  Trace.Recorder.exit_span r ~ts:30.0 ();
  Trace.Recorder.exit_span r ~ts:40.0 ();
  Trace.Recorder.events r

let test_folded_stacks () =
  let folded = Export.folded (nested_span_events ()) in
  (* one line per unique stack, root-first frames, self time (the
     outer span's 30 ns minus the inner's 10), sorted by stack *)
  Alcotest.(check string) "folded" "s:outer 20\ns:outer;s:inner 10\n" folded

let test_top_spans () =
  let rows = Export.top_spans (nested_span_events ()) in
  (match rows with
  | [ a; b ] ->
      Alcotest.(check string) "biggest self first" "s:outer" a.Export.sr_frame;
      checki "outer count" 1 a.Export.sr_count;
      checkf "outer total" 30.0 a.Export.sr_total_ns;
      checkf "outer self" 20.0 a.Export.sr_self_ns;
      Alcotest.(check string) "then inner" "s:inner" b.Export.sr_frame;
      checkf "inner self" 10.0 b.Export.sr_self_ns
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows)));
  checki "limit honoured" 1 (List.length (Export.top_spans ~limit:1 (nested_span_events ())))

let test_recorder_merge () =
  let mk ts0 =
    let r = Trace.Recorder.create () in
    Trace.Recorder.enter_span r ~ts:ts0 ~cat:Event.Lock ~subsystem:"s" "op";
    Trace.Recorder.exit_span r ~ts:(ts0 +. 5.0) ();
    Trace.Recorder.emit r ~ts:(ts0 +. 6.0) ~cat:Event.Bus ~subsystem:"s" "tick";
    r
  in
  let a = mk 0.0 and b = mk 2.0 in
  let m = Trace.Recorder.merge a b in
  let evs = Trace.Recorder.events m in
  checki "all retained" 4 (List.length evs);
  let s = Trace.Recorder.stats m in
  checki "emitted sums" 4 s.Trace.emitted;
  checki "nothing dropped" 0 s.Trace.dropped;
  let tss = List.map (fun (e : Event.t) -> e.Event.ts_ns) evs in
  checkb "interleaved by ts" true (tss = List.sort compare tss);
  (* b's span ids are offset past a's: causal trees never collide *)
  let ids = List.filter_map (fun (e : Event.t) -> if e.Event.span <> 0 then Some e.Event.span else None) evs in
  checki "both spans present" 2 (List.length ids);
  checkb "distinct ids" true (List.sort_uniq compare ids = List.sort compare ids);
  (* per-category counts add *)
  checkb "counts add" true
    (List.sort compare (Trace.Recorder.category_counts m)
    = List.sort compare [ (Event.Lock, 2); (Event.Bus, 2) ]);
  (* deterministic, and the inputs are untouched *)
  checkb "deterministic" true (Trace.Recorder.events (Trace.Recorder.merge a b) = evs);
  checki "a intact" 2 (List.length (Trace.Recorder.events a));
  checki "b intact" 2 (List.length (Trace.Recorder.events b))

(* ----------------------------- metrics ---------------------------- *)

let test_metrics_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"t" "hits" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  checki "counter" 5 (Metrics.counter_value c);
  let g = Metrics.gauge m ~subsystem:"t" "level" in
  Metrics.set g 2.5;
  checkf "gauge" 2.5 (Metrics.gauge_value g);
  let flat = Metrics.flat m in
  checkf "flat counter" 5.0 (List.assoc "t/hits" flat);
  checkf "flat gauge" 2.5 (List.assoc "t/level" flat)

let test_metrics_histogram_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"t" "lat" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  let flat = Metrics.flat m in
  checkf "count" 100.0 (List.assoc "t/lat/count" flat);
  checkf "mean" 50.5 (List.assoc "t/lat/mean" flat);
  checkf "p50" 50.0 (List.assoc "t/lat/p50" flat);
  checkf "p95" 95.0 (List.assoc "t/lat/p95" flat);
  checkf "p99" 99.0 (List.assoc "t/lat/p99" flat);
  checkf "max" 100.0 (List.assoc "t/lat/max" flat)

(** Regression: the flat export must be sorted by key regardless of
    registration order, so two registries with the same instruments
    produce byte-identical reports (what the bench snapshot diffs and
    the differential suites rely on). *)
let test_metrics_flat_order_independent () =
  let keys =
    [ "zerod/pages"; "bus/txns"; "lock/count"; "aes/bytes"; "sched/switches" ]
  in
  let value_of key = float_of_int (Hashtbl.hash key mod 1000) in
  let with_values order =
    let m = Metrics.create () in
    List.iter
      (fun key ->
        match String.split_on_char '/' key with
        | [ subsystem; name ] ->
            Metrics.inc ~by:(int_of_float (value_of key)) (Metrics.counter m ~subsystem name)
        | _ -> assert false)
      order;
    Metrics.flat m
  in
  let a = with_values keys in
  let b = with_values (List.rev keys) in
  checkb "insertion order is invisible" true (a = b);
  let ks = List.map fst a in
  checkb "keys sorted" true (ks = List.sort String.compare ks);
  checki "all present" (List.length keys) (List.length a)

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m ~subsystem:"t" "x");
  checkb "clash raises" true
    (try
       ignore (Metrics.gauge m ~subsystem:"t" "x");
       false
     with Invalid_argument _ -> true)

let test_metrics_labels () =
  Alcotest.(check string) "labels sorted by key" "s/n{a=1,b=2}"
    (Metrics.key ~subsystem:"s" ~labels:[ ("b", "2"); ("a", "1") ] "n");
  let m = Metrics.create () in
  let large = Metrics.counter m ~subsystem:"s" ~labels:[ ("tenant_class", "large") ] "hits" in
  let small = Metrics.counter m ~subsystem:"s" ~labels:[ ("tenant_class", "small") ] "hits" in
  let plain = Metrics.counter m ~subsystem:"s" "hits" in
  Metrics.inc large;
  Metrics.inc ~by:2 small;
  Metrics.inc ~by:4 plain;
  let flat = Metrics.flat m in
  checkf "unlabeled stays separate" 4.0 (List.assoc "s/hits" flat);
  checkf "large" 1.0 (List.assoc "s/hits{tenant_class=large}" flat);
  checkf "small" 2.0 (List.assoc "s/hits{tenant_class=small}" flat);
  checkb "structural chars rejected" true
    (try
       ignore (Metrics.key ~subsystem:"s" ~labels:[ ("a,b", "x") ] "n");
       false
     with Invalid_argument _ -> true)

let test_histogram_bounded_reservoir () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"t" "lat" in
  for i = 1 to 10_000 do
    Metrics.observe h (float_of_int i)
  done;
  checki "count keeps growing" 10_000 (Metrics.hist_count h);
  checki "reservoir capped" Metrics.reservoir_capacity (Array.length (Metrics.observations h));
  checkf "max exact" 10_000.0 (Metrics.hist_max h);
  checkf "min exact" 1.0 (Metrics.hist_min h);
  (* beyond the reservoir, percentiles are HDR bucket-upper-bound
     estimates: over-estimates within the 6.25% bucket width, clamped
     to the tracked max *)
  let p50 = Metrics.hist_percentile h 50.0 in
  checkb "p50 within bucket error" true (p50 >= 5000.0 && p50 <= 5000.0 *. 1.0625);
  let p999 = Metrics.hist_percentile h 99.9 in
  checkb "p999 near the tail" true (p999 >= 9990.0 && p999 <= 10_000.0);
  checkb "p999 exported" true (List.mem_assoc "t/lat/p999" (Metrics.flat m))

let test_histogram_p999_exact_path () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"t" "lat" in
  for i = 1 to 200 do
    Metrics.observe h (float_of_int i)
  done;
  (* 200 samples fit the reservoir: percentiles are exact nearest-rank *)
  checkf "p999 exact" 200.0 (Metrics.hist_percentile h 99.9);
  checkf "p50 exact" 100.0 (Metrics.hist_percentile h 50.0)

let test_metrics_merge_semantics () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.inc ~by:3 (Metrics.counter a ~subsystem:"s" "c");
  Metrics.inc ~by:4 (Metrics.counter b ~subsystem:"s" "c");
  Metrics.set_at (Metrics.gauge a ~subsystem:"s" "g") ~ts:10.0 1.0;
  Metrics.set_at (Metrics.gauge b ~subsystem:"s" "g") ~ts:5.0 9.0;
  let ha = Metrics.histogram a ~subsystem:"s" "h" in
  let hb = Metrics.histogram b ~subsystem:"s" "h" in
  List.iter (Metrics.observe ha) [ 1.0; 5.0 ];
  List.iter (Metrics.observe hb) [ 2.0; 10.0 ];
  (* b also carries an instrument a never saw *)
  Metrics.inc (Metrics.counter b ~subsystem:"s" "only_b");
  let flat = Metrics.flat (Metrics.merge a b) in
  checkf "counters add" 7.0 (List.assoc "s/c" flat);
  checkf "later simulated write wins" 1.0 (List.assoc "s/g" flat);
  checkf "hist count" 4.0 (List.assoc "s/h/count" flat);
  checkf "hist mean" 4.5 (List.assoc "s/h/mean" flat);
  checkf "hist max" 10.0 (List.assoc "s/h/max" flat);
  checkf "b-only instrument survives" 1.0 (List.assoc "s/only_b" flat);
  checkb "merge commutes on the flat report" true
    (flat = Metrics.flat (Metrics.merge b a));
  (* snapshots are isolated deep copies *)
  let snap = Metrics.snapshot a in
  Metrics.inc (Metrics.counter a ~subsystem:"s" "c");
  checkf "snapshot frozen" 3.0 (List.assoc "s/c" (Metrics.flat snap));
  (* same key, different kind: merge must refuse *)
  let x = Metrics.create () and y = Metrics.create () in
  ignore (Metrics.counter x ~subsystem:"s" "k");
  ignore (Metrics.gauge y ~subsystem:"s" "k");
  checkb "kind mismatch raises" true
    (try
       ignore (Metrics.merge x y);
       false
     with Invalid_argument _ -> true)

(* ------------------------ merge properties ------------------------ *)

(* Counter values are ints, so merge is exactly associative and
   commutative; histogram count/bucket-occupancy/min/max likewise.
   (Float sums and reservoir order are deliberately excluded: addition
   is commutative but not associative to the ulp.) *)

let counter_registry kvs =
  let m = Metrics.create () in
  List.iter
    (fun (i, v) ->
      Metrics.inc ~by:v (Metrics.counter m ~subsystem:"q" (Printf.sprintf "c%d" (i mod 4))))
    kvs;
  m

let counters_gen = QCheck.(list (pair small_nat small_nat))

let hist_registry xs =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"q" "h" in
  List.iter (fun n -> Metrics.observe h (float_of_int (n + 1))) xs;
  m

let hist_sig m =
  let h = Metrics.histogram m ~subsystem:"q" "h" in
  (Metrics.hist_count h, Metrics.bucket_counts h, Metrics.hist_min h, Metrics.hist_max h)

let obs_gen = QCheck.(list small_nat)

let prop_counter_merge_comm =
  QCheck.Test.make ~name:"counter merge commutative" ~count:100
    QCheck.(pair counters_gen counters_gen)
    (fun (xs, ys) ->
      Metrics.flat (Metrics.merge (counter_registry xs) (counter_registry ys))
      = Metrics.flat (Metrics.merge (counter_registry ys) (counter_registry xs)))

let prop_counter_merge_assoc =
  QCheck.Test.make ~name:"counter merge associative" ~count:100
    QCheck.(triple counters_gen counters_gen counters_gen)
    (fun (xs, ys, zs) ->
      let a () = counter_registry xs and b () = counter_registry ys and c () = counter_registry zs in
      Metrics.flat (Metrics.merge (Metrics.merge (a ()) (b ())) (c ()))
      = Metrics.flat (Metrics.merge (a ()) (Metrics.merge (b ()) (c ()))))

let prop_hist_merge_comm =
  QCheck.Test.make ~name:"histogram bucket merge commutative" ~count:100
    QCheck.(pair obs_gen obs_gen)
    (fun (xs, ys) ->
      hist_sig (Metrics.merge (hist_registry xs) (hist_registry ys))
      = hist_sig (Metrics.merge (hist_registry ys) (hist_registry xs)))

let prop_hist_merge_assoc =
  QCheck.Test.make ~name:"histogram bucket merge associative" ~count:100
    QCheck.(triple obs_gen obs_gen obs_gen)
    (fun (xs, ys, zs) ->
      let a () = hist_registry xs and b () = hist_registry ys and c () = hist_registry zs in
      hist_sig (Metrics.merge (Metrics.merge (a ()) (b ())) (c ()))
      = hist_sig (Metrics.merge (a ()) (Metrics.merge (b ()) (c ()))))

(* The reservoir merge must not bias percentiles toward any shard's
   earliest samples (the pre-fix behavior kept shard 0's reservoir and
   a *prefix* of each later shard's).  Pool random shards in a random
   merge order and require every exported percentile to match the
   pooled ground truth: exactly while the pooled count fits the
   reservoir, within the 6.25% HDR bucket width beyond it — and to be
   identical across merge orders either way. *)
let hist_registry_values vs =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~subsystem:"q" "h" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) vs;
  m

let merge_in_order rs = function
  | [] -> invalid_arg "merge_in_order"
  | perm ->
      let arr = Array.of_list rs in
      (match List.map (fun i -> arr.(i)) perm with
      | r0 :: rest -> List.fold_left Metrics.merge r0 rest
      | [] -> assert false)

(* Deterministic pin of the same fix: two equal-weight shards past the
   reservoir must both survive in the merged exact-sample window (the
   pre-fix prefix-take kept only shard 0's), in either merge order. *)
let test_merged_reservoir_weighted () =
  let lo = hist_registry_values (List.init 300 (fun _ -> 1_000)) in
  let hi = hist_registry_values (List.init 300 (fun _ -> 3_000)) in
  List.iter
    (fun (name, m) ->
      let h = Metrics.histogram m ~subsystem:"q" "h" in
      let obs = Metrics.observations h in
      checki (name ^ ": reservoir full") Metrics.reservoir_capacity (Array.length obs);
      let n_lo = Array.fold_left (fun a v -> if v = 1_000.0 then a + 1 else a) 0 obs in
      let n_hi = Array.fold_left (fun a v -> if v = 3_000.0 then a + 1 else a) 0 obs in
      checki (name ^ ": nothing else") Metrics.reservoir_capacity (n_lo + n_hi);
      checki (name ^ ": equal shard weights split the window") n_lo n_hi)
    [ ("lo-hi", Metrics.merge lo hi); ("hi-lo", Metrics.merge hi lo) ]

let prop_hist_merge_unbiased =
  let shards_gen =
    QCheck.(pair (list_of_size Gen.(2 -- 5) (list_of_size Gen.(0 -- 300) (1 -- 100_000))) small_nat)
  in
  QCheck.Test.make ~name:"merged percentiles track pooled samples in any merge order" ~count:60
    shards_gen
    (fun (shards, seed) ->
      let shards = if shards = [] then [ [ 1 ] ] else shards in
      let rs = List.map hist_registry_values shards in
      let k = List.length rs in
      let ids = List.init k Fun.id in
      (* a deterministic pseudo-random permutation, plus its reverse *)
      let perm =
        List.map snd (List.sort compare (List.map (fun i -> (Hashtbl.hash (seed, i), i)) ids))
      in
      let ha = Metrics.histogram (merge_in_order rs perm) ~subsystem:"q" "h" in
      let hb = Metrics.histogram (merge_in_order rs (List.rev perm)) ~subsystem:"q" "h" in
      let pooled = Array.of_list (List.concat_map (List.map float_of_int) shards) in
      let n = Array.length pooled in
      n = 0
      || List.for_all
           (fun p ->
             let truth = Sentry_util.Stats.percentile p pooled in
             let est = Metrics.hist_percentile ha p in
             Metrics.hist_percentile hb p = est
             &&
             if n <= Metrics.reservoir_capacity then est = truth
             else est >= truth && est <= truth *. 1.0625 *. (1.0 +. 1e-9))
           [ 50.0; 90.0; 99.0; 99.9 ])

(* ------------------------------- slo ------------------------------ *)

let test_slo_parse_and_evaluate () =
  let spec = "# header comment\n\na/b p99 <= 10\na/b/count >= 2\nc/d >= 1.5 # trailing\n" in
  match Slo.parse spec with
  | Error e -> Alcotest.fail e
  | Ok objs ->
      checki "three objectives" 3 (List.length objs);
      (match objs with
      | o :: _ -> Alcotest.(check string) "stat expands into the key" "a/b/p99" o.Slo.key
      | [] -> Alcotest.fail "no objectives");
      let r = Slo.evaluate objs [ ("a/b/p99", 5.0); ("a/b/count", 2.0); ("c/d", 1.0) ] in
      checki "one violation" 1 r.Slo.violations;
      checkb "not ok" false (Slo.ok r);
      let missing = Slo.evaluate objs [ ("a/b/p99", 5.0) ] in
      checki "missing keys are violations" 2 missing.Slo.violations;
      let pass = Slo.evaluate objs [ ("a/b/p99", 10.0); ("a/b/count", 2.0); ("c/d", 1.5) ] in
      checkb "thresholds are inclusive" true (Slo.ok pass)

let test_slo_parse_errors () =
  let bad s = match Slo.parse s with Error _ -> true | Ok _ -> false in
  checkb "bad operator" true (bad "a/b == 1\n");
  checkb "bad threshold" true (bad "a/b <= fast\n");
  checkb "unknown stat" true (bad "a/b p42 <= 1\n");
  checkb "missing threshold" true (bad "a/b <=\n")

let test_slo_report_json () =
  match Slo.parse "a/b <= 1\nmissing/key >= 0\n" with
  | Error e -> Alcotest.fail e
  | Ok objs ->
      let report = Slo.evaluate objs [ ("a/b", 2.0) ] in
      let doc = Json.parse (Json_out.to_string (Slo.report_json report)) in
      checkb "ok false" true (Json.member "ok" doc = Some (Json.Bool false));
      checkb "violations" true (Json.member "violations" doc = Some (Json.Num 2.0));
      (match Json.member "results" doc with
      | Some (Json.Arr [ first; second ]) ->
          checkb "actual present" true (Json.member "actual" first = Some (Json.Num 2.0));
          checkb "missing actual is null" true (Json.member "actual" second = Some Json.Null)
      | _ -> Alcotest.fail "results must list both objectives")

(* ---------------------------- exporters --------------------------- *)

let sample_events =
  [
    {
      Event.ts_ns = 1000.0;
      cat = Event.Lock;
      subsystem = "core.lock_state";
      name = "lock-transition";
      phase = Event.Instant;
      span = 0;
      parent = 0;
      args = [ ("from", Event.Str "unlocked"); ("to", Event.Str "locking") ];
    };
    {
      Event.ts_ns = 2000.0;
      cat = Event.Crypto;
      subsystem = "crypto.perf";
      name = "aes-charge";
      phase = Event.Complete 512.0;
      span = 1;
      parent = 0;
      args = [ ("bytes", Event.Int 4096); ("ok", Event.Bool true) ];
    };
  ]

let test_chrome_trace_shape () =
  let doc = Json.parse (Export.chrome_trace_string sample_events) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  checkb "displayTimeUnit" true (Json.member "displayTimeUnit" doc = Some (Json.Str "ns"));
  (* metadata names the process and one lane per subsystem *)
  let phases =
    List.filter_map (fun e -> Json.member "ph" e) events
    |> List.map (function Json.Str s -> s | _ -> Alcotest.fail "ph not a string")
  in
  checkb "has metadata" true (List.mem "M" phases);
  checkb "has instant" true (List.mem "i" phases);
  checkb "has span" true (List.mem "X" phases);
  List.iter
    (fun e ->
      checkb "every event has a name" true (Json.member "name" e <> None);
      checkb "every event has a pid" true (Json.member "pid" e <> None);
      match Json.member "ph" e with
      | Some (Json.Str "X") ->
          (* spans carry microsecond dur: 512 ns = 0.512 us *)
          checkb "span dur" true (Json.member "dur" e = Some (Json.Num 0.512));
          checkb "span ts in us" true (Json.member "ts" e = Some (Json.Num 2.0))
      | _ -> ())
    events

let test_jsonl_parses_per_line () =
  let lines =
    Export.jsonl sample_events |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  checki "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      let o = Json.parse line in
      checkb "cat" true (Json.member "cat" o <> None);
      checkb "ts_ns" true (Json.member "ts_ns" o <> None))
    lines

let test_metrics_jsonl () =
  let lines =
    Export.metrics_jsonl [ ("a/b", 1.5); ("c/d", infinity) ]
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  checki "two lines" 2 (List.length lines);
  (match Json.parse (List.nth lines 0) with
  | o ->
      checkb "key" true (Json.member "key" o = Some (Json.Str "a/b"));
      checkb "value" true (Json.member "value" o = Some (Json.Num 1.5)));
  (* non-finite floats must not corrupt the JSON *)
  checkb "inf is null" true (Json.member "value" (Json.parse (List.nth lines 1)) = Some Json.Null)

(* ------------------------- end-to-end runs ------------------------ *)

let run_scenario ?seed name platform =
  let recorder = Trace.Recorder.create () in
  Trace.install recorder;
  let r = Sentry_core.Trace_scenario.run ?seed name platform in
  let evs = Trace.Recorder.events recorder in
  let flat = Sentry_core.Obs_report.flat r.Sentry_core.Trace_scenario.sentry in
  Trace.uninstall ();
  (evs, flat)

let test_scenario_deterministic () =
  let a, _ = run_scenario Sentry_core.Trace_scenario.Lock_cycle `Tegra3 in
  let b, _ = run_scenario Sentry_core.Trace_scenario.Lock_cycle `Tegra3 in
  checki "same length" (List.length a) (List.length b);
  checkb "identical event streams" true (a = b)

let test_scenario_platform_sensitivity () =
  let a, _ = run_scenario Sentry_core.Trace_scenario.Lock_cycle `Tegra3 in
  let b, _ = run_scenario Sentry_core.Trace_scenario.Lock_cycle `Nexus4 in
  (* no cache locking and no background paging on the nexus4: the
     streams must reflect the platform, not just the scenario script *)
  checkb "streams differ" true (a <> b)

let required_names =
  [ "lock-transition"; "page-fault"; "aes-charge"; "device-read"; "read" ]

let test_scenario_covers_required_events () =
  List.iter
    (fun platform ->
      let evs, _ = run_scenario Sentry_core.Trace_scenario.Lock_cycle platform in
      let names = List.map (fun (e : Event.t) -> e.Event.name) evs in
      List.iter
        (fun n -> checkb (Printf.sprintf "%s present" n) true (List.mem n names))
        required_names)
    [ `Tegra3; `Nexus4; `Future ]

let test_scenario_metrics_report () =
  let _, flat = run_scenario Sentry_core.Trace_scenario.Lock_cycle `Tegra3 in
  checkb "bus transactions" true (List.assoc "soc.bus/transactions" flat > 0.0);
  checkb "locks counted" true (List.assoc "core.lock_state/locks" flat = 1.0);
  checkb "events recorded" true (List.assoc "obs.trace/events_emitted" flat > 0.0);
  (* keys are sorted for stable, diffable reports *)
  let keys = List.map fst flat in
  checkb "sorted keys" true (keys = List.sort compare keys);
  (* every key describes the simulated run, none the host process, so
     a second run of the same scenario reports exactly the same *)
  checkb "no host keys" false
    (List.exists (fun k -> String.length k >= 5 && String.sub k 0 5 = "host.") keys);
  let _, again = run_scenario Sentry_core.Trace_scenario.Lock_cycle `Tegra3 in
  checkb "same report on a second run" true (flat = again)

let test_chrome_export_of_scenario_parses () =
  let evs, _ = run_scenario Sentry_core.Trace_scenario.Dm_crypt_io `Tegra3 in
  match Json.parse (Export.chrome_trace_string evs) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "chrome trace must be a JSON object"

(* md5 of each canned scenario's JSONL event stream, pinned per
   platform: the scenario's recorder install, its clock time source and
   the leading "install" event (platform, track_taint) are part of the
   stream.  Both entry paths must produce it: a caller-installed
   recorder, and none (the scenario installs one and leaves it
   installed).  On the future platform the stream includes the pinned
   bank's [soc.pinned] events. *)
let scenario_jsonl_pins =
  [
    (Sentry_core.Trace_scenario.Lock_cycle, `Tegra3, "a8e896bfbc41624afc51458198a66770");
    (Sentry_core.Trace_scenario.Lock_cycle, `Nexus4, "bb17d58965658a7753f340a0ca2ae280");
    (Sentry_core.Trace_scenario.Lock_cycle, `Future, "3dc1fc5e326bf81469f967e44b6aaef8");
    (Sentry_core.Trace_scenario.Dm_crypt_io, `Tegra3, "084c0bfa1d63c129fb02b3d60322a511");
    (Sentry_core.Trace_scenario.Dm_crypt_io, `Nexus4, "63a27aed2f62c22d478b52df460f7ea8");
    (Sentry_core.Trace_scenario.Dm_crypt_io, `Future, "dc89d0c5492ab4b59a6ecb4e6c2966e6");
  ]

let test_scenario_jsonl_pinned () =
  let md5 evs = Digest.to_hex (Digest.string (Export.jsonl evs)) in
  List.iter
    (fun (name, platform, pin) ->
      let label =
        Printf.sprintf "%s/%s" (Sentry_core.Trace_scenario.name_to_string name)
          (match platform with `Tegra3 -> "tegra3" | `Nexus4 -> "nexus4" | `Future -> "future")
      in
      let evs, _ = run_scenario name platform in
      Alcotest.(check string) (label ^ " caller recorder") pin (md5 evs);
      checkb "untraced before" false (Trace.on ());
      ignore (Sentry_core.Trace_scenario.run name platform);
      let own =
        match Trace.installed () with
        | Some r -> md5 (Trace.Recorder.events r)
        | None -> "no recorder left installed"
      in
      Trace.uninstall ();
      Alcotest.(check string) (label ^ " own recorder") pin own)
    scenario_jsonl_pins

(* --------------------- ambient slot is per-domain ------------------ *)

(* The ambient recorder lives in [Domain.DLS]: a freshly spawned
   domain starts untraced, a worker's install never clobbers the
   spawner's, and nothing the worker records lands in the main
   domain's recorder.  This is what lets each fleet shard own a
   private recorder on a pool worker. *)
let test_trace_ambient_domain_local () =
  let r = Trace.Recorder.create ~capacity:16 () in
  Trace.install r;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let worker =
        Domain.spawn (fun () ->
            let inherited = Trace.on () in
            let mine = Trace.Recorder.create ~capacity:16 () in
            Trace.install mine;
            Trace.Recorder.emit mine ~ts:1.0 ~cat:Event.Sched ~subsystem:"test" "worker-event";
            let own = match Trace.installed () with Some x -> x == mine | None -> false in
            let seen = (Trace.Recorder.stats mine).Trace.emitted in
            Trace.uninstall ();
            (inherited, own, seen))
      in
      let inherited, own, seen = Domain.join worker in
      checkb "fresh domain starts untraced" false inherited;
      checkb "worker sees its own install" true own;
      checki "worker recorder saw its event" 1 seen;
      checkb "main slot untouched" true
        (match Trace.installed () with Some x -> x == r | None -> false);
      checki "main recorder saw nothing" 0 (Trace.Recorder.stats r).Trace.emitted)

let () =
  Alcotest.run "sentry_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "off is silent" `Quick test_trace_off_is_silent;
          Alcotest.test_case "ambient is domain-local" `Quick test_trace_ambient_domain_local;
          Alcotest.test_case "records in order" `Quick test_trace_records_in_order;
          Alcotest.test_case "overflow keeps newest" `Quick test_ring_overflow_keeps_newest;
          Alcotest.test_case "clear keeps recorder" `Quick test_trace_clear_keeps_recorder;
          Alcotest.test_case "span duration" `Quick test_span_duration;
          Alcotest.test_case "recorder handle api" `Quick test_recorder_handle_api;
        ] );
      ( "spans",
        [
          Alcotest.test_case "enter/exit nesting" `Quick test_enter_exit_nesting;
          Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
          Alcotest.test_case "top spans" `Quick test_top_spans;
          Alcotest.test_case "recorder merge" `Quick test_recorder_merge;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histogram percentiles" `Quick test_metrics_histogram_percentiles;
          Alcotest.test_case "flat order independent" `Quick test_metrics_flat_order_independent;
          Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
          Alcotest.test_case "labels" `Quick test_metrics_labels;
          Alcotest.test_case "bounded reservoir" `Quick test_histogram_bounded_reservoir;
          Alcotest.test_case "p999 exact path" `Quick test_histogram_p999_exact_path;
          Alcotest.test_case "merge semantics" `Quick test_metrics_merge_semantics;
          QCheck_alcotest.to_alcotest prop_counter_merge_comm;
          QCheck_alcotest.to_alcotest prop_counter_merge_assoc;
          QCheck_alcotest.to_alcotest prop_hist_merge_comm;
          QCheck_alcotest.to_alcotest prop_hist_merge_assoc;
          Alcotest.test_case "merged reservoir is count-weighted" `Quick
            test_merged_reservoir_weighted;
          QCheck_alcotest.to_alcotest prop_hist_merge_unbiased;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse and evaluate" `Quick test_slo_parse_and_evaluate;
          Alcotest.test_case "parse errors" `Quick test_slo_parse_errors;
          Alcotest.test_case "report json" `Quick test_slo_report_json;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
          Alcotest.test_case "jsonl per line" `Quick test_jsonl_parses_per_line;
          Alcotest.test_case "metrics jsonl" `Quick test_metrics_jsonl;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "platform sensitivity" `Quick test_scenario_platform_sensitivity;
          Alcotest.test_case "covers required events" `Quick test_scenario_covers_required_events;
          Alcotest.test_case "metrics report" `Quick test_scenario_metrics_report;
          Alcotest.test_case "chrome export parses" `Quick test_chrome_export_of_scenario_parses;
          Alcotest.test_case "jsonl pinned" `Quick test_scenario_jsonl_pinned;
        ] );
    ]
