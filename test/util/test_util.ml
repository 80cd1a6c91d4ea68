open Sentry_util

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------ Prng ----------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    checki "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits a = Prng.bits b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let p = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Prng.float p 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_flip_bias () =
  let p = Prng.create ~seed:5 in
  let heads = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.flip p ~p:0.25 then incr heads
  done;
  let ratio = float_of_int !heads /. float_of_int n in
  checkb "quarter-ish" true (ratio > 0.22 && ratio < 0.28)

let test_prng_bytes_len () =
  let p = Prng.create ~seed:6 in
  checki "length" 33 (Bytes.length (Prng.bytes p 33))

let test_prng_shuffle_permutation () =
  let p = Prng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_zipf_gen_skew () =
  let gen = Prng.zipf_gen ~n:100 ~s:1.2 in
  let p = Prng.create ~seed:10 in
  let top = ref 0 and n = 5000 in
  for _ = 1 to n do
    if gen p < 10 then incr top
  done;
  (* with s=1.2 the top decile should draw well over a third of mass *)
  checkb "skewed" true (float_of_int !top /. float_of_int n > 0.35)

let test_prng_exponential_positive () =
  let p = Prng.create ~seed:11 in
  for _ = 1 to 100 do
    checkb "positive" true (Prng.exponential p ~mean:3.0 >= 0.0)
  done

(* ------------------------------ Hex ------------------------------ *)

let test_hex_roundtrip () =
  let p = Prng.create ~seed:12 in
  for _ = 1 to 50 do
    let b = Prng.bytes p (Prng.int p 64) in
    check Alcotest.bytes "roundtrip" b (Hex.decode (Hex.encode b))
  done

let test_hex_known () =
  check Alcotest.string "encode" "00ff10" (Hex.encode (Hex.decode "00ff10"));
  check Alcotest.string "abc" "616263" (Hex.encode_string "abc")

let test_hex_uppercase_decode () =
  check Alcotest.bytes "upper" (Hex.decode "deadbeef") (Hex.decode "DEADBEEF")

let test_hex_bad_input () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: not a hex digit")
    (fun () -> ignore (Hex.decode "zz"))

let test_hex_dump_shape () =
  let d = Hex.dump ~base:0x1000 (Bytes.of_string "hello world, this is a dump") in
  checkb "base" true (String.length d > 0 && String.sub d 0 8 = "00001000");
  checkb "ascii gutter" true (String.contains d '|')

(* --------------------------- Bytes_util -------------------------- *)

let test_fill_count_pattern () =
  let b = Bytes.create 64 in
  Bytes_util.fill_pattern b (Bytes.of_string "ABCD");
  checki "count" 16 (Bytes_util.count_pattern b (Bytes.of_string "ABCD"));
  Bytes.set b 5 'x';
  checki "one slot broken" 15 (Bytes_util.count_pattern b (Bytes.of_string "ABCD"))

let test_count_pattern_partial_tail () =
  let b = Bytes.create 10 in
  Bytes_util.fill_pattern b (Bytes.of_string "abc");
  (* 3 full slots fit in 10 bytes *)
  checki "tail ignored" 3 (Bytes_util.count_pattern b (Bytes.of_string "abc"))

let test_find_contains () =
  let b = Bytes.of_string "xxxxneedleyyyy" in
  check Alcotest.(option int) "found" (Some 4) (Bytes_util.find b (Bytes.of_string "needle"));
  checkb "contains" true (Bytes_util.contains b (Bytes.of_string "needle"));
  checkb "missing" false (Bytes_util.contains b (Bytes.of_string "nadel"));
  check Alcotest.(option int) "empty needle" (Some 0) (Bytes_util.find b Bytes.empty)

let test_find_at_end () =
  let b = Bytes.of_string "aaaaaab" in
  check Alcotest.(option int) "end" (Some 5) (Bytes_util.find b (Bytes.of_string "ab"))

let test_xor_into () =
  let a = Bytes.of_string "\x0f\xf0" and d = Bytes.of_string "\xff\xff" in
  Bytes_util.xor_into ~src:a ~dst:d;
  check Alcotest.bytes "xor" (Bytes.of_string "\xf0\x0f") d;
  Bytes_util.xor_into ~src:a ~dst:d;
  check Alcotest.bytes "involution" (Bytes.of_string "\xff\xff") d

let test_equal_ct () =
  checkb "equal" true (Bytes_util.equal_ct (Bytes.of_string "abc") (Bytes.of_string "abc"));
  checkb "diff" false (Bytes_util.equal_ct (Bytes.of_string "abc") (Bytes.of_string "abd"));
  checkb "len" false (Bytes_util.equal_ct (Bytes.of_string "abc") (Bytes.of_string "ab"))

let test_equal_view_bad_view () =
  let b = Bytes.make 16 'a' in
  List.iter
    (fun (a_off, b_off, len) ->
      Alcotest.check_raises "bad view" (Invalid_argument "Bytes_util.equal_view: bad view")
        (fun () -> ignore (Bytes_util.equal_view b a_off b b_off len)))
    [ (-1, 0, 4); (0, -1, 4); (0, 0, -1); (13, 0, 4); (0, 9, 8) ]

let test_zero_is_zero () =
  let b = Bytes.of_string "junk" in
  checkb "not zero" false (Bytes_util.is_zero b);
  Bytes_util.zero b;
  checkb "zero" true (Bytes_util.is_zero b);
  checkb "empty is zero" true (Bytes_util.is_zero Bytes.empty)

(* ------------------------------ Stats ---------------------------- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  checki "n" 4 s.Stats.n

let test_stats_stddev () =
  let s = Stats.summarize [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "stddev" 2.0 s.Stats.stddev

let test_stats_constant_series () =
  let s = Stats.summarize (Array.make 10 3.5) in
  Alcotest.(check (float 1e-12)) "zero spread" 0.0 s.Stats.stddev

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile 100.0 xs)

let test_stats_repeat () =
  let s = Stats.repeat ~trials:5 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.mean

let test_stats_overhead () =
  Alcotest.(check (float 1e-9)) "2x" 2.0 (Stats.overhead ~base:5.0 ~measured:10.0);
  checkb "inf" true (Stats.overhead ~base:0.0 ~measured:1.0 = infinity)

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty series") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_single_element () =
  let s = Stats.summarize [| 42.0 |] in
  checki "n" 1 s.Stats.n;
  Alcotest.(check (float 1e-12)) "mean" 42.0 s.Stats.mean;
  Alcotest.(check (float 1e-12)) "stddev" 0.0 s.Stats.stddev;
  Alcotest.(check (float 1e-12)) "min" 42.0 s.Stats.min;
  Alcotest.(check (float 1e-12)) "max" 42.0 s.Stats.max;
  Alcotest.(check (float 1e-12)) "p50" 42.0 (Stats.percentile 50.0 [| 42.0 |])

let test_stats_all_equal () =
  let xs = Array.make 7 5.5 in
  Alcotest.(check (float 1e-12)) "p0" 5.5 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-12)) "p50" 5.5 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-12)) "p100" 5.5 (Stats.percentile 100.0 xs)

let test_stats_percentile_extremes () =
  let xs = [| 9.0; 1.0; 5.0; 3.0; 7.0 |] in
  Alcotest.(check (float 1e-12)) "p0 is min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-12)) "p100 is max" 9.0 (Stats.percentile 100.0 xs)

(* Float.compare gives a total order (NaN before every real), so a
   stray NaN cannot poison the sort or flip the extrema fold based on
   argument order: high percentiles and max stay real numbers. *)
let test_stats_nan_safety () =
  let xs = [| 3.0; Float.nan; 1.0; 2.0 |] in
  checkb "p0 is the NaN (ordered first)" true (Float.is_nan (Stats.percentile 0.0 xs));
  Alcotest.(check (float 1e-12)) "p50 real" 1.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-12)) "p100 real" 3.0 (Stats.percentile 100.0 xs);
  let s = Stats.summarize xs in
  checkb "min is the NaN (ordered first)" true (Float.is_nan s.Stats.min);
  Alcotest.(check (float 1e-12)) "max real" 3.0 s.Stats.max

(* ------------------------------ Units ---------------------------- *)

let test_units_pp () =
  check Alcotest.string "bytes" "1.00 MB" (Units.to_string Units.pp_bytes Units.mib);
  check Alcotest.string "kb" "4.0 KB" (Units.to_string Units.pp_bytes 4096);
  check Alcotest.string "time" "1.50 s" (Units.to_string Units.pp_time (1.5 *. Units.s));
  check Alcotest.string "minutes" "2.00 min" (Units.to_string Units.pp_time (120.0 *. Units.s));
  check Alcotest.string "energy" "2.00 mJ" (Units.to_string Units.pp_energy 0.002)

let test_units_throughput () =
  Alcotest.(check (float 1e-6)) "100 MB/s" 100.0
    (Units.throughput_mb_s ~bytes:(100 * Units.mib) ~time_ns:Units.s);
  Alcotest.(check (float 1e-6)) "zero time" 0.0 (Units.throughput_mb_s ~bytes:5 ~time_ns:0.0)

(* ------------------------------ Table ---------------------------- *)

let test_table_render () =
  let t =
    Table.make ~title:"T" ~header:[ "a"; "bb" ] ~notes:[ "n" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Table.to_string t in
  checkb "has title" true (String.length s > 0);
  List.iter
    (fun needle ->
      checkb needle true
        (Bytes_util.contains (Bytes.of_string s) (Bytes.of_string needle)))
    [ "T"; "a"; "bb"; "333"; "note: n" ]

let test_table_csv () =
  let t =
    Table.make ~title:"T" ~header:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ]
  in
  let csv = Table.to_csv t in
  checkb "comment title" true (String.length csv > 0 && csv.[0] = '#');
  checkb "comma quoted" true
    (Bytes_util.contains (Bytes.of_string csv) (Bytes.of_string "\"with,comma\""));
  checkb "quote doubled" true
    (Bytes_util.contains (Bytes.of_string csv) (Bytes.of_string "\"with\"\"quote\""))

let test_table_ragged_rows () =
  (* rows narrower than the header must not crash *)
  let t = Table.make ~title:"x" ~header:[ "a"; "b"; "c" ] [ [ "1" ]; [ "1"; "2"; "3" ] ] in
  checkb "renders" true (String.length (Table.to_string t) > 0)

(* --------------------------- properties -------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"hex roundtrip" ~count:200 (string_of_size Gen.(0 -- 100)) (fun s ->
        Bytes.to_string (Hex.decode (Hex.encode_string s)) = s);
    Test.make ~name:"xor_into is an involution" ~count:200
      (pair (string_of_size Gen.(return 32)) (string_of_size Gen.(return 32)))
      (fun (a, b) ->
        let src = Bytes.of_string a and dst = Bytes.of_string b in
        Bytes_util.xor_into ~src ~dst;
        Bytes_util.xor_into ~src ~dst;
        Bytes.to_string dst = b);
    Test.make ~name:"equal_ct agrees with Bytes.equal" ~count:500
      (pair (string_of_size Gen.(0 -- 20)) (string_of_size Gen.(0 -- 20)))
      (fun (a, b) ->
        Bytes_util.equal_ct (Bytes.of_string a) (Bytes.of_string b) = (a = b));
    (* views at offsets 0-7 of a shared 0-40 byte body, one byte
       flipped or not: word and tail compares, misaligned loads *)
    Test.make ~name:"equal_view agrees with Bytes.equal on the views" ~count:500
      (quad (string_of_size Gen.(0 -- 40)) (int_range 0 7) (int_range 0 7) (int_range (-1) 39))
      (fun (body, a_off, b_off, flip) ->
        let len = String.length body in
        let a = Bytes.make (a_off + len + 3) 'x' and b = Bytes.make (b_off + len) 'y' in
        Bytes.blit_string body 0 a a_off len;
        Bytes.blit_string body 0 b b_off len;
        if flip >= 0 && flip < len then
          Bytes.set b (b_off + flip) (Char.chr (Char.code body.[flip] lxor 0x10));
        Bytes_util.equal_view a a_off b b_off len
        = Bytes.equal (Bytes.sub a a_off len) (Bytes.sub b b_off len));
    Test.make ~name:"count_pattern after fill_pattern = slots" ~count:100
      (pair (int_range 1 16) (int_range 1 256))
      (fun (pn, n) ->
        QCheck.assume (n >= pn);
        let pat = Bytes.init pn (fun i -> Char.chr ((i * 37) mod 256)) in
        let b = Bytes.create n in
        Bytes_util.fill_pattern b pat;
        Bytes_util.count_pattern b pat = n / pn);
    Test.make ~name:"percentile is monotone" ~count:100
      (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
      (fun xs ->
        let a = Array.of_list xs in
        Stats.percentile 25.0 a <= Stats.percentile 75.0 a);
  ]

(* ------------------------------ dpool ------------------------------ *)

let test_dpool_run_order () =
  (* results come back in submission order however many workers race *)
  List.iter
    (fun domains ->
      let tasks = List.init 17 (fun i () -> i * i) in
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved at %d domains" domains)
        (List.init 17 (fun i -> i * i))
        (Dpool.run ~domains tasks))
    [ 1; 2; 4 ]

let test_dpool_exception_propagates () =
  Alcotest.check_raises "task exception re-raised at await" (Failure "task 2 boom") (fun () ->
      ignore (Dpool.run ~domains:2 [ (fun () -> 1); (fun () -> failwith "task 2 boom") ]))

let test_dpool_more_workers_than_tasks () =
  Alcotest.(check (list int)) "8 domains, 2 tasks" [ 10; 20 ]
    (Dpool.run ~domains:8 [ (fun () -> 10); (fun () -> 20) ])

let test_dpool_submit_await_reuse () =
  let pool = Dpool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Dpool.shutdown pool)
    (fun () ->
      let p1 = Dpool.submit pool (fun () -> "a") in
      let p2 = Dpool.submit pool (fun () -> "b") in
      Alcotest.(check string) "first" "a" (Dpool.await p1);
      Alcotest.(check string) "second" "b" (Dpool.await p2);
      (* await is idempotent: the settled state is kept *)
      Alcotest.(check string) "first again" "a" (Dpool.await p1))

(* A raising job must cost only its own promise: workers survive it,
   every later submission still runs, and results stay in submission
   order — on the same still-open pool. *)
let test_dpool_raise_ok_mixture () =
  let pool = Dpool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Dpool.shutdown pool)
    (fun () ->
      let promises =
        List.init 20 (fun i ->
            ( i,
              Dpool.submit pool (fun () ->
                  if i mod 3 = 0 then failwith (Printf.sprintf "boom %d" i) else i * 10) ))
      in
      List.iter
        (fun (i, p) ->
          if i mod 3 = 0 then
            Alcotest.check_raises
              (Printf.sprintf "task %d re-raises at await" i)
              (Failure (Printf.sprintf "boom %d" i))
              (fun () -> ignore (Dpool.await p))
          else Alcotest.(check int) (Printf.sprintf "task %d result" i) (i * 10) (Dpool.await p))
        promises;
      (* the pool is still healthy after a burst of failures *)
      Alcotest.(check string) "post-failure submission runs" "alive"
        (Dpool.await (Dpool.submit pool (fun () -> "alive"))))

let test_dpool_run_results_mixture () =
  let outcomes =
    Dpool.run_results ~domains:4
      (List.init 9 (fun i () -> if i mod 2 = 1 then failwith "odd" else i))
  in
  Alcotest.(check int) "every task has an outcome" 9 (List.length outcomes);
  List.iteri
    (fun i o ->
      match o with
      | Ok v ->
          Alcotest.(check bool) "even tasks succeed" true (i mod 2 = 0);
          Alcotest.(check int) "in submission order" i v
      | Error (Failure m) ->
          Alcotest.(check bool) "odd tasks fail" true (i mod 2 = 1);
          Alcotest.(check string) "their own exception" "odd" m
      | Error e -> raise e)
    outcomes

let test_dpool_shutdown_rejects_submit () =
  let pool = Dpool.create ~domains:1 in
  Dpool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Dpool.submit: pool is shut down") (fun () ->
      ignore (Dpool.submit pool (fun () -> ())))

let test_dpool_invalid_domains () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Dpool.create: domains must be positive")
    (fun () -> ignore (Dpool.create ~domains:0))

let () =
  Alcotest.run "sentry_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "flip bias" `Quick test_prng_flip_bias;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_gen_skew;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
        ] );
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "known" `Quick test_hex_known;
          Alcotest.test_case "uppercase" `Quick test_hex_uppercase_decode;
          Alcotest.test_case "bad input" `Quick test_hex_bad_input;
          Alcotest.test_case "dump shape" `Quick test_hex_dump_shape;
        ] );
      ( "bytes_util",
        [
          Alcotest.test_case "fill/count" `Quick test_fill_count_pattern;
          Alcotest.test_case "partial tail" `Quick test_count_pattern_partial_tail;
          Alcotest.test_case "find/contains" `Quick test_find_contains;
          Alcotest.test_case "find at end" `Quick test_find_at_end;
          Alcotest.test_case "xor_into" `Quick test_xor_into;
          Alcotest.test_case "equal_ct" `Quick test_equal_ct;
          Alcotest.test_case "equal_view bad view" `Quick test_equal_view_bad_view;
          Alcotest.test_case "zero/is_zero" `Quick test_zero_is_zero;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "constant" `Quick test_stats_constant_series;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "repeat" `Quick test_stats_repeat;
          Alcotest.test_case "overhead" `Quick test_stats_overhead;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single element" `Quick test_stats_single_element;
          Alcotest.test_case "all equal" `Quick test_stats_all_equal;
          Alcotest.test_case "percentile extremes" `Quick test_stats_percentile_extremes;
          Alcotest.test_case "NaN safety" `Quick test_stats_nan_safety;
        ] );
      ( "units",
        [
          Alcotest.test_case "pretty printing" `Quick test_units_pp;
          Alcotest.test_case "throughput" `Quick test_units_throughput;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "dpool",
        [
          Alcotest.test_case "run preserves order" `Quick test_dpool_run_order;
          Alcotest.test_case "exception propagates" `Quick test_dpool_exception_propagates;
          Alcotest.test_case "more workers than tasks" `Quick test_dpool_more_workers_than_tasks;
          Alcotest.test_case "submit/await reuse" `Quick test_dpool_submit_await_reuse;
          Alcotest.test_case "raise/ok mixture" `Quick test_dpool_raise_ok_mixture;
          Alcotest.test_case "run_results mixture" `Quick test_dpool_run_results_mixture;
          Alcotest.test_case "shutdown rejects submit" `Quick test_dpool_shutdown_rejects_submit;
          Alcotest.test_case "invalid domains" `Quick test_dpool_invalid_domains;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
