(** One benchmark run of one workload: set-up, a timed loop of calls,
    checks of the simulated outputs, and the metrics.

    Untraced runs report the end-to-end metrics.  Traced runs spend
    the same time on an untraced loop, a traced loop (spans recorded
    by benchmark code around each layer call) and the isolated-call
    ladder, and report the per-layer metrics. *)

let workloads =
  [
    ("fleet-churn", Fleet_churn.make);
    ("serve-open", Serve_open.make);
    ("app-cycle", App_cycle.make);
    ("filebench-io", Filebench_io.make);
  ]

(** Metric names with their units, in report order. *)
let end_to_end = [ ("throughput_per_s", "1/s"); ("peak_rss_mb", "MiB"); ("setup_s", "s") ]

(* Span names whose self-time share of the traced calls is reported. *)
let phases =
  [
    "core.boot";
    "core.install";
    "core.spawn_fill";
    "core.lock";
    "core.service";
    "core.unlock";
    "kernel.touch";
    "kernel.dmcrypt_io";
    "workloads.launch";
    "workloads.resume";
    "workloads.script";
    "workloads.randrw_direct";
    "workloads.randread_cached";
    "workloads.fingerprint";
    "serve.generate";
    "serve.admission";
    "serve.summarize";
    "util.dpool";
  ]

let per_layer =
  [
    ("core.boot_ms", "ms");
    ("core.install_ms", "ms");
    ("core.spawn_fill_us_per_page", "us");
    ("core.lock_ns_per_page", "ns");
    ("core.lock_minor_words_per_page", "words");
    ("core.lock_residual_ns_per_page", "ns");
    ("core.unlock_us", "us");
    ("core.pages_locked", "count");
    ("kernel.fault_us", "us");
    ("kernel.fault_minor_words", "words");
    ("kernel.dmcrypt_sector_us", "us");
    ("crypto.page_cbc_ns", "ns");
    ("crypto.page_cbc_minor_words", "words");
    ("crypto.sector_ns", "ns");
    ("soc.machine_create_ms", "ms");
    ("soc.read_run_ns_per_page", "ns");
    ("soc.write_run_ns_per_page", "ns");
    ("soc.read_line_hit_ns", "ns");
    ("soc.read_line_miss_ns", "ns");
    ("workloads.filebench_prepare_ms", "ms");
    ("workloads.filebench_randrw_direct_us_per_op", "us");
    ("workloads.filebench_randread_cached_us_per_op", "us");
    ("workloads.fleet_lock_only_pages_per_s", "pages/s");
    ("serve.generate_ms", "ms");
    ("serve.offer_ns", "ns");
    ("serve.batch_us", "us");
    ("serve.requests_per_batch", "count");
    ("util.dpool_wait_ms", "ms");
    ("util.dpool_busy_frac", "fraction");
    ("gc.minor_words_per_iter", "words");
    ("gc.major_words_per_iter", "words");
    ("gc.minor_collections_per_iter", "count");
    ("gc.major_collections_per_iter", "count");
    ("bench.covered_frac", "fraction");
    ("bench.trace_overhead_frac", "fraction");
    ("bench.probe_ms", "ms");
  ]
  @ List.map (fun p -> (p ^ ".self_frac", "fraction")) phases

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * string * float) list;  (** name, unit, value *)
  per_layer : (string * string * float) list;  (** empty unless traced *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* ---------------------------- timing loop -------------------------- *)

type call = {
  outcome : (Workload.outcome, string) result;
  ns : int;  (** host ns *)
  probe_ns : float;  (** host-speed probe around the call, see [Host_speed] *)
  gc : Gc.stat * Gc.stat;  (** before and after, minor heap emptied at both ends *)
  rss_mb : float;  (** peak resident set while the call ran *)
}

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:0.0

(* Reset the kernel's peak-RSS mark, so the next reading covers one
   call: a process-wide peak would be the largest of many calls, set
   by however many dead simulated machines the GC had yet to free at
   the worst moment.  Where the mark cannot be reset, readings stay
   process-wide peaks. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Calls back to back until [seconds] have passed and a whole round of
   keys is done.  Between calls, outside the timed bracket, the heap is
   compacted, so the garbage of one call's simulated machines is not
   collected on the next call's time, and the host-speed probe runs;
   a call's probe time is the mean of the probes before and after it. *)
let loop ~seconds ~period f =
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i before acc =
    if i > 0 && i mod period = 0 && Span.now_ns () >= deadline then List.rev acc
    else begin
      reset_peak_rss ();
      let g0 = Gc.quick_stat () in
      let t0 = Span.now_ns () in
      let outcome = match f i with o -> Ok o | exception e -> Error (Printexc.to_string e) in
      let ns = Span.now_ns () - t0 in
      let rss_mb = peak_rss_mb () in
      Gc.minor ();
      let gc = (g0, Gc.quick_stat ()) in
      let after = Host_speed.probe () in
      go (i + 1) after ({ outcome; ns; probe_ns = (before +. after) /. 2.0; gc; rss_mb } :: acc)
    end
  in
  go 0 (Host_speed.probe ()) []

let median = Ladder.median

(* Nearest-rank quartiles of host times. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q p = a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1)))) in
  (q 0.25, median xs, q 0.75)

(* The statistic every host-time metric uses: the first quartile.
   Host noise only ever adds time, and on a shared VM it comes in
   bursts that the probe does not fully cancel, so the faster calls of
   a run are the ones that reflect the program.  The README compares
   the two statistics over the same runs. *)
let host_ns xs =
  let q1, _, _ = quartiles xs in
  q1

let ok_calls calls =
  List.filter_map (fun c -> Result.to_option c.outcome |> Option.map (fun o -> (o, c))) calls

(* Per key: the outcome of its first call and all its successful calls. *)
let by_key calls =
  let ok = ok_calls calls in
  let keys = List.sort_uniq compare (List.map (fun ((o : Workload.outcome), _) -> o.key) ok) in
  List.map
    (fun k ->
      let mine = List.filter (fun ((o : Workload.outcome), _) -> o.key = k) ok in
      (k, fst (List.hd mine), List.map snd mine))
    keys

let raw c = float_of_int c.ns
let scaled c = Host_speed.scaled ~ns:c.ns ~probe_ns:c.probe_ns
let key_ns ?(time = scaled) ?(stat = host_ns) cs = stat (List.map time cs)

(* Host ns of one round: each key's time per call, summed. *)
let round_ns ?time ?stat calls =
  List.fold_left (fun a (_, _, cs) -> a +. key_ns ?time ?stat cs) 0.0 (by_key calls)

(* Work items per second over a round. *)
let throughput ?time ?stat calls =
  let items =
    List.fold_left (fun a (_, (o : Workload.outcome), _) -> a + o.items) 0 (by_key calls)
  in
  let ns = round_ns ?time ?stat calls in
  if ns > 0.0 then float_of_int items /. (ns /. 1e9) else 0.0

(* The largest key's median per-call peak: what a call needs. *)
let call_rss_mb calls =
  List.fold_left
    (fun a (_, _, cs) -> Float.max a (median (List.map (fun c -> c.rss_mb) cs)))
    0.0 (by_key calls)

(* Scaled set-up times: at least [reps] fresh bring-ups and at least
   [seconds]. *)
let setups ~reps ~seconds bring_up =
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go n before acc =
    if n >= reps && Span.now_ns () >= deadline then acc
    else begin
      let t0 = Span.now_ns () in
      bring_up ();
      let ns = Span.now_ns () - t0 in
      let after = Host_speed.probe () in
      go (n + 1) after (Host_speed.scaled ~ns ~probe_ns:((before +. after) /. 2.0) :: acc)
    end
  in
  go 0 (Host_speed.probe ()) []

(* ------------------------------ checks ----------------------------- *)

(* Every call of a key must give one digest — across iterations,
   between the entry point and the traced replica, and on two domains
   — and that digest must equal the pin, if any. *)
let check (w : Workload.t) outcomes =
  let keys = List.sort_uniq compare (List.map (fun (o : Workload.outcome) -> o.key) outcomes) in
  List.concat_map
    (fun k ->
      let digests =
        List.sort_uniq compare
          (List.filter_map
             (fun (o : Workload.outcome) -> if o.key = k then Some o.digest else None)
             outcomes)
      in
      match (digests, w.pin k) with
      | [ d ], Some p when d <> p -> [ Printf.sprintf "%s: digest %s, pinned %s" k d p ]
      | [ _ ], _ -> []
      | ds, _ -> [ Printf.sprintf "%s: %d different simulated outputs" k (List.length ds) ])
    keys

(* --------------------------- layer metrics ------------------------- *)

let layer_metrics ~spans ~iter_spans ~rounds ~untraced ~traced ~ladder =
  let named n ss = List.filter (fun (s : Span.span) -> s.name = n) ss in
  let sum f ss = List.fold_left (fun a s -> a +. f s) 0.0 ss in
  let dur s = float_of_int (Span.dur s) in
  let items (s : Span.span) = float_of_int s.items in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let per_item ns = ratio (sum dur ns) (sum items ns) in
  let med_dur n = median (List.map dur (named n spans)) in
  let rung n = List.fold_left (fun a (m, _, v) -> if m = n then v else a) 0.0 ladder in
  let lock = named "core.lock" spans in
  let lock_ns = per_item lock in
  let faults = named "kernel.touch" spans @ named "workloads.resume" spans in
  let self = Span.with_self iter_spans in
  let total_self = List.fold_left (fun a (_, t) -> a +. float_of_int t) 0.0 self in
  let self_of n =
    List.fold_left
      (fun a ((s : Span.span), t) -> if s.name = n then a +. float_of_int t else a)
      0.0 self
  in
  let pools = named "util.dpool" iter_spans in
  let n = float_of_int (List.length untraced) in
  let gc f = ratio (sum (fun c -> let a, b = c.gc in f b -. f a) untraced) n in
  let values =
    [
      ("core.boot_ms", med_dur "core.boot" /. 1e6);
      ("core.install_ms", med_dur "core.install" /. 1e6);
      ("core.spawn_fill_us_per_page", per_item (named "core.spawn_fill" spans) /. 1e3);
      ("core.lock_ns_per_page", lock_ns);
      ("core.lock_minor_words_per_page", ratio (sum (fun s -> s.Span.words) lock) (sum items lock));
      ( "core.lock_residual_ns_per_page",
        if lock = [] then 0.0
        else
          lock_ns -. rung "crypto.page_cbc_ns" -. rung "soc.read_run_ns_per_page"
          -. rung "soc.write_run_ns_per_page" );
      ("core.unlock_us", med_dur "core.unlock" /. 1e3);
      ("core.pages_locked", ratio (sum items (named "core.lock" iter_spans)) rounds);
      ("kernel.fault_us", per_item faults /. 1e3);
      ("kernel.fault_minor_words", ratio (sum (fun s -> s.Span.words) faults) (sum items faults));
      ("workloads.filebench_prepare_ms", med_dur "workloads.prepare" /. 1e6);
      ( "workloads.filebench_randrw_direct_us_per_op",
        per_item (named "workloads.randrw_direct" spans) /. 1e3 );
      ( "workloads.filebench_randread_cached_us_per_op",
        per_item (named "workloads.randread_cached" spans) /. 1e3 );
      ("workloads.fleet_lock_only_pages_per_s", if pools = [] then 0.0 else ratio 1e9 lock_ns);
      ("serve.generate_ms", med_dur "serve.generate" /. 1e6);
      ("serve.offer_ns", per_item (named "serve.admission" spans));
      ("serve.batch_us", med_dur "bench.batch" /. 1e3);
      ( "serve.requests_per_batch",
        let batches = named "bench.batch" spans in
        ratio (sum items batches) (float_of_int (List.length batches)) );
      ( "util.dpool_wait_ms",
        ratio (self_of "util.dpool") (float_of_int (List.length pools)) /. 1e6 );
      ( "util.dpool_busy_frac",
        (* each pool's capacity is its wall time on every domain its
           tasks ran on; pools are fresh, so domain ids differ per call *)
        let tasks (p : Span.span) = List.filter (fun (s : Span.span) -> s.parent = p.id) iter_spans in
        let capacity p =
          let domains = List.sort_uniq compare (List.map (fun s -> s.Span.domain) (tasks p)) in
          float_of_int (List.length domains) *. dur p
        in
        ratio (sum (fun p -> sum dur (tasks p)) pools) (sum capacity pools) );
      ("gc.minor_words_per_iter", gc (fun s -> s.Gc.minor_words));
      ("gc.major_words_per_iter", gc (fun s -> s.Gc.major_words));
      ("gc.minor_collections_per_iter", gc (fun s -> float_of_int s.Gc.minor_collections));
      ("gc.major_collections_per_iter", gc (fun s -> float_of_int s.Gc.major_collections));
      ("bench.covered_frac", Span.covered_frac iter_spans);
      ("bench.trace_overhead_frac", ratio (round_ns traced) (round_ns untraced) -. 1.0);
      ("bench.probe_ms", median (List.map (fun c -> c.probe_ns) (untraced @ traced)) /. 1e6);
    ]
    @ List.map (fun (m, _, v) -> (m, v)) ladder
    @ List.map (fun p -> (p ^ ".self_frac", ratio (self_of p) total_self)) phases
  in
  List.map (fun (m, u) -> (m, u, List.assoc m values)) per_layer

(* ------------------------------- run ------------------------------ *)

let run ?(setup_reps = 5) ?trace_dir ~workload ~seed ~seconds ~trace () =
  let make =
    match List.assoc_opt workload workloads with
    | Some m -> m
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let w : Workload.t = make ~seed in
  let recorder = Span.create () in
  let ctx = if trace then Span.root recorder else Span.Off in
  let setup_ns =
    setups ~reps:setup_reps ~seconds:(Float.min 1.0 (0.1 *. seconds)) (fun () ->
        Span.run ctx "bench.setup" w.bring_up)
  in
  let loop_s = if trace then 0.45 *. seconds else seconds in
  (* a zero-second run, as in the self-test, makes one call per loop *)
  let period = if seconds > 0.0 then w.period else 1 in
  let untraced = loop ~seconds:loop_s ~period w.call in
  let traced =
    if trace then
      loop ~seconds:loop_s ~period (fun i ->
          Span.run ctx "bench.iter" (fun ctx -> w.traced ctx i))
    else []
  in
  let two_domains =
    match w.two_domains with Some f -> loop ~seconds:0.0 ~period:1 (fun _ -> f ()) | None -> []
  in
  (* a tenth of the run, over the ladder's nine rungs *)
  let ladder =
    if trace then
      Span.run ctx "bench.ladder" (fun ctx -> Ladder.run ctx ~budget_s:(0.1 *. seconds /. 9.0))
    else []
  in
  let calls = untraced @ traced @ two_domains in
  let errors =
    List.filter_map (fun c -> match c.outcome with Error e -> Some e | Ok _ -> None) calls
  in
  let mismatches = check w (List.map fst (ok_calls calls)) in
  let count f =
    List.fold_left (fun a c -> a + match c.outcome with Ok o -> f o | Error _ -> 1) 0 calls
  in
  let attempted = count (fun o -> o.attempted) in
  let failed = if mismatches = [] then count (fun o -> o.failed) else attempted in
  let notes =
    List.map (fun e -> "error: " ^ e) errors
    @ List.map (fun m -> "mismatch: " ^ m) mismatches
    @ List.concat_map
        (fun (k, (o : Workload.outcome), cs) ->
          let q1, med, q3 = quartiles (List.map raw cs) in
          Printf.sprintf
            "%s %s: n=%d call median %.2f ms (q1 %.2f, q3 %.2f), scaled q1 %.2f ms, %d %s, digest %s"
            workload k (List.length cs) (med /. 1e6) (q1 /. 1e6) (q3 /. 1e6) (key_ns cs /. 1e6)
            o.items w.item o.digest
          :: List.map
               (fun (name, v) -> Printf.sprintf "%s %s: %s = %.9g (simulated)" workload k name v)
               o.sim)
        (by_key untraced)
    @ [
        Printf.sprintf "%s throughput: raw %.1f, scaled %.1f, scaled at median calls %.1f %s/s"
          workload (throughput ~time:raw untraced) (throughput untraced)
          (throughput ~stat:median untraced) w.item;
        (let q1, med, q3 = quartiles setup_ns in
         Printf.sprintf "%s set-up: n=%d scaled q1 %.2f ms (median %.2f, q3 %.2f)" workload
           (List.length setup_ns) (q1 /. 1e6) (med /. 1e6) (q3 /. 1e6));
        Printf.sprintf "%s host-speed probe: median %.3f ms (reference %.3f ms)" workload
          (median (List.map (fun c -> c.probe_ns) calls) /. 1e6)
          (Host_speed.reference_ns /. 1e6);
      ]
  in
  let per_layer =
    if trace then begin
      let spans = Span.spans recorder in
      let iter_spans = Span.subtrees ~keep:(fun s -> s.Span.name = "bench.iter") spans in
      Option.iter (fun dir -> Span.write_all ~dir spans) trace_dir;
      let rounds = float_of_int (List.length traced) /. float_of_int period in
      layer_metrics ~spans ~iter_spans ~rounds ~untraced ~traced ~ladder
    end
    else []
  in
  {
    correct = errors = [] && mismatches = [] && failed = 0;
    attempted;
    failed;
    end_to_end =
      [
        ("throughput_per_s", "1/s", throughput untraced);
        ("peak_rss_mb", "MiB", call_rss_mb untraced);
        ("setup_s", "s", host_ns setup_ns /. 1e9);
      ];
    per_layer;
    notes;
  }

(** The result line: end-to-end metrics, or per-layer ones when traced. *)
let json_line ~trace r =
  let open Sentry_obs.Json_out in
  to_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (m, u, v) -> (m, Obj [ ("value", Float v); ("unit", Str u) ]))
                (if trace then r.per_layer else r.end_to_end)) );
       ])
