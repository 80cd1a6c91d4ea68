open Sentry_serve

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------------------- arrivals ---------------------------- *)

let arrivals_cfg =
  { Arrivals.rate_hz = 100.0; burst = 3.0; duration_s = 1.0; tenants = 8; seed = 11 }

(* The schedule is a pure function of its config: two generations are
   structurally identical, and the serve sharding depends on it (every
   shard regenerates the schedule and filters its tenants). *)
let test_generate_deterministic () =
  let a = Arrivals.generate arrivals_cfg and b = Arrivals.generate arrivals_cfg in
  checki "same length" (List.length a) (List.length b);
  checkb "identical schedules" true (a = b);
  let c = Arrivals.generate { arrivals_cfg with Arrivals.seed = 12 } in
  checkb "seed changes the schedule" true (a <> c)

let test_generate_well_formed () =
  let reqs = Arrivals.generate arrivals_cfg in
  checkb "non-empty" true (reqs <> []);
  let duration_ns = arrivals_cfg.Arrivals.duration_s *. Sentry_util.Units.s in
  List.iteri
    (fun i (r : Arrivals.request) ->
      checki "ids are arrival order" i r.Arrivals.id;
      checkb "timestamp within span" true (r.Arrivals.at_ns > 0.0 && r.Arrivals.at_ns < duration_ns);
      checkb "tenant in pool" true
        (r.Arrivals.tenant >= 0 && r.Arrivals.tenant < arrivals_cfg.Arrivals.tenants);
      Alcotest.(check string)
        "class matches fleet assignment"
        (Sentry_workloads.Fleet.tenant_class ~index:r.Arrivals.tenant)
        r.Arrivals.cls)
    reqs;
  let rec sorted = function
    | (a : Arrivals.request) :: (b :: _ as rest) -> a.Arrivals.at_ns <= b.Arrivals.at_ns && sorted rest
    | _ -> true
  in
  checkb "sorted by arrival time" true (sorted reqs)

(* The peak quarter runs at burst x the base rate, the night quarter
   at half — so with a large burst the third quarter must hold the
   plurality of arrivals. *)
let test_generate_diurnal_shape () =
  let cfg = { arrivals_cfg with Arrivals.rate_hz = 400.0; burst = 8.0 } in
  let reqs = Arrivals.generate cfg in
  let duration_ns = cfg.Arrivals.duration_s *. Sentry_util.Units.s in
  let quarter (r : Arrivals.request) = int_of_float (r.Arrivals.at_ns /. duration_ns *. 4.0) in
  let count q = List.length (List.filter (fun r -> quarter r = q) reqs) in
  let night = count 0 and peak = count 2 in
  checkb "peak quarter dominates night" true (peak > 4 * night);
  checkb "peak quarter dominates shoulders" true (peak > count 1 && peak > count 3)

(* --------------------------- admission ---------------------------- *)

let req ~id ~tenant =
  {
    Arrivals.id;
    at_ns = float_of_int id;
    tenant;
    cls = Sentry_workloads.Fleet.tenant_class ~index:tenant;
  }

let test_admission_shed_on_depth () =
  let q = Admission.create ~depth:2 ~backlog_pages_max:100 in
  Alcotest.(check bool) "first queued" true (Admission.offer q ~pages:1 (req ~id:0 ~tenant:1) = Admission.Queued);
  Alcotest.(check bool) "second queued" true (Admission.offer q ~pages:1 (req ~id:1 ~tenant:2) = Admission.Queued);
  Alcotest.(check bool) "third shed" true (Admission.offer q ~pages:1 (req ~id:2 ~tenant:3) = Admission.Shed);
  checki "depth holds" 2 (Admission.length q)

let test_admission_reject_on_backlog () =
  let q = Admission.create ~depth:10 ~backlog_pages_max:4 in
  Alcotest.(check bool) "3 pages queued" true (Admission.offer q ~pages:3 (req ~id:0 ~tenant:0) = Admission.Queued);
  (* queue has slots, but 3 + 3 > 4: saturation, not overload *)
  Alcotest.(check bool) "next 3 pages rejected" true
    (Admission.offer q ~pages:3 (req ~id:1 ~tenant:4) = Admission.Rejected);
  (* a light request still fits under the cap *)
  Alcotest.(check bool) "1 page still queued" true
    (Admission.offer q ~pages:1 (req ~id:2 ~tenant:1) = Admission.Queued);
  checki "backlog accounted" 4 (Admission.backlog_pages q)

(* Regression: a request whose page weight alone exceeds
   [backlog_pages_max] used to be [Rejected] even against an empty
   queue — with every slot and zero backlog free — starving its tenant
   permanently.  An idle queue must admit it; the cap still holds once
   anything is pending. *)
let test_admission_oversized_admits_when_idle () =
  let q = Admission.create ~depth:4 ~backlog_pages_max:4 in
  Alcotest.(check bool)
    "oversized request admitted by idle queue" true
    (Admission.offer q ~pages:9 (req ~id:0 ~tenant:0) = Admission.Queued);
  checki "backlog carries the overweight" 9 (Admission.backlog_pages q);
  Alcotest.(check bool)
    "cap still rejects once pending" true
    (Admission.offer q ~pages:1 (req ~id:1 ~tenant:1) = Admission.Rejected);
  ignore (Admission.take_batch q ~max:1);
  checki "backlog released" 0 (Admission.backlog_pages q);
  Alcotest.(check bool)
    "admits again after drain" true
    (Admission.offer q ~pages:9 (req ~id:2 ~tenant:0) = Admission.Queued)

let test_admission_take_batch_fifo () =
  let q = Admission.create ~depth:10 ~backlog_pages_max:100 in
  List.iter
    (fun i -> ignore (Admission.offer q ~pages:2 (req ~id:i ~tenant:(i mod 8))))
    [ 0; 1; 2; 3; 4 ];
  checki "backlog before" 10 (Admission.backlog_pages q);
  let batch = Admission.take_batch q ~max:3 in
  checki "batch size" 3 (List.length batch);
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2 ]
    (List.map (fun (r : Arrivals.request) -> r.Arrivals.id) batch);
  checki "backlog released" 4 (Admission.backlog_pages q);
  checki "rest takeable" 2 (List.length (Admission.take_batch q ~max:10));
  checkb "then empty" true (Admission.is_empty q)

(* ----------------------------- server ----------------------------- *)

let fast = { Server.default with Server.duration_s = 1.0 }

(* The sharded server must be execution-strategy independent: the
   merged stats, the serialized serve --json document and the merged
   metrics snapshot are bit-identical on 1 and 4 domains. *)
let test_sharded_domain_invariance () =
  let a = Server.run_sharded ~domains:1 fast in
  let b = Server.run_sharded ~domains:4 fast in
  checkb "merged stats equal" true (a.Server.merged = b.Server.merged);
  Alcotest.(check string)
    "serve --json documents equal"
    (Sentry_obs.Json_out.to_string (Server.json a.Server.merged))
    (Sentry_obs.Json_out.to_string (Server.json b.Server.merged));
  let flat m = Sentry_obs.Metrics.flat m in
  let module Shard = Sentry_workloads.Shard in
  checkb "merged metrics snapshots equal" true
    (flat a.Server.shards.Shard.merged_metrics = flat b.Server.shards.Shard.merged_metrics);
  checki "same shard count"
    (List.length a.Server.shards.Shard.plan)
    (List.length b.Server.shards.Shard.plan)

(* Sharded serve traces through per-shard recorders: a tracing caller
   gets one merged recorder whose category counts do not depend on D. *)
let test_sharded_traced_domain_invariance () =
  let module Trace = Sentry_obs.Trace in
  let traced domains =
    Trace.install (Trace.Recorder.create ~capacity:65536 ());
    let sh = Fun.protect ~finally:Trace.uninstall (fun () -> Server.run_sharded ~domains fast) in
    match sh.Server.shards.Sentry_workloads.Shard.merged_recorder with
    | Some r -> r
    | None -> Alcotest.fail "a tracing caller should get a merged recorder"
  in
  let a = traced 1 and b = traced 4 in
  checkb "shards emitted events" true ((Trace.Recorder.stats a).Trace.emitted > 0);
  checkb "category counts equal" true
    (Trace.Recorder.category_counts a = Trace.Recorder.category_counts b)

(* Below service capacity the bounded queue never fills: open-loop
   pressure only shows up as sheds once the rate crosses capacity,
   and from there the shed rate is monotone in the rate. *)
let test_shed_rate_monotone () =
  let at rate =
    let s =
      Server.run { fast with Server.rate_hz = rate; queue_depth = 4; batch_max = 4 }
    in
    checki "conservation: every arrival got a verdict" s.Server.requests
      (s.Server.served + s.Server.shed + s.Server.rejected);
    s.Server.shed_rate
  in
  let quiet = at 20.0 in
  Alcotest.(check (float 0.0)) "zero sheds below capacity" 0.0 quiet;
  let rates = [ 200.0; 1000.0; 5000.0 ] in
  let sheds = List.map at rates in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "shed rate monotone in arrival rate" true (monotone (quiet :: sheds));
  checkb "overload actually sheds" true (List.exists (fun r -> r > 0.0) sheds)

(* Regression (server level): with [backlog_pages_max] below a large
   tenant's request footprint (first-touch page + eager-DMA churn),
   large tenants used to be rejected on every arrival forever — even
   against an idle server.  They must still get served, and every
   arrival must still receive exactly one verdict. *)
let test_server_no_permanent_starvation () =
  let weight =
    Server.request_pages ~pages_per_proc:fast.Server.pages_per_proc
      { Arrivals.id = 0; at_ns = 0.0; tenant = 0; cls = "large" }
  in
  let s = Server.run { fast with Server.backlog_pages_max = weight - 1 } in
  checki "conservation: every arrival got a verdict" s.Server.requests
    (s.Server.served + s.Server.shed + s.Server.rejected);
  checkb "large tenants are served, not starved" true
    (List.exists (fun (cls, _) -> cls = "large") s.Server.latency_samples)

(* Chaos soak: crashes keep firing mid-traffic, every one recovers,
   and the post-recovery audit never finds an inconsistency — while
   the open-loop arrivals all still get verdicts. *)
let test_soak_recovers_under_traffic () =
  let s = Server.run { fast with Server.soak = true; soak_period = 3 } in
  checkb "at least 3 crashes injected" true (s.Server.crashes_injected >= 3);
  checki "every crash recovered" s.Server.crashes_injected s.Server.recoveries;
  checki "no consistency findings" 0 s.Server.audit_findings;
  checkb "recovery rolled pages forward" true (s.Server.pages_fixed > 0);
  checkb "serving continued" true (s.Server.served > 0);
  checki "conservation under chaos" s.Server.requests
    (s.Server.served + s.Server.shed + s.Server.rejected)

(* The soak must not change what gets served, only when: the same
   open-loop schedule yields the same verdict counts per class (queue
   headroom absorbs the recovery passes), while the crashes themselves
   cost simulated time — so the samples shift, but none go missing. *)
let test_soak_preserves_service () =
  let a = Server.run fast in
  let b = Server.run { fast with Server.soak = true } in
  checki "same arrivals" a.Server.requests b.Server.requests;
  checki "same served" a.Server.served b.Server.served;
  checkb "soak injected crashes" true (b.Server.crashes_injected > 0);
  let class_counts (s : Server.stats) =
    List.map (fun (cls, (d : Server.dist)) -> (cls, d.Server.count)) s.Server.latency_by_class
  in
  Alcotest.(check (list (pair string int)))
    "same per-class sample counts" (class_counts a) (class_counts b)

let test_metrics_recorded () =
  let sh = Server.run_sharded ~shards:1 ~domains:1 fast in
  let s = sh.Server.merged in
  let flat = Sentry_obs.Metrics.flat sh.Server.shards.Sentry_workloads.Shard.merged_metrics in
  let get k =
    match List.assoc_opt k flat with
    | Some v -> v
    | None -> Alcotest.failf "missing metrics key %s" k
  in
  Alcotest.(check (float 0.0)) "requests counter" (float_of_int s.Server.requests)
    (get "serve/requests_total");
  Alcotest.(check (float 0.0)) "served counter" (float_of_int s.Server.served)
    (get "serve/served_total");
  Alcotest.(check (float 0.0)) "shed-rate gauge" s.Server.shed_rate (get "serve/shed_rate");
  List.iter
    (fun (cls, (d : Server.dist)) ->
      Alcotest.(check (float 0.0))
        (cls ^ " histogram count")
        (float_of_int d.Server.count)
        (get (Printf.sprintf "serve/queue_wait_ns{tenant_class=%s}/count" cls)))
    s.Server.queue_wait_by_class

(* ----------------------------- golden ----------------------------- *)

(* [Server.json] digests of the default quiet and soak runs, captured
   before [Server.run] became the one-shard plan; any drift in the
   simulated outputs changes them. *)
let json_md5 cfg =
  Digest.to_hex (Digest.string (Sentry_obs.Json_out.to_string (Server.json (Server.run cfg))))

let test_golden_quiet () =
  Alcotest.(check string)
    "default quiet json md5" "a4e1c6913b7cafc58da979b97ca3b305" (json_md5 Server.default)

let test_golden_soak () =
  Alcotest.(check string)
    "default soak json md5" "2f33462044812a0e966ead9aa84c0e0b"
    (json_md5 { Server.default with Server.soak = true })

let () =
  Alcotest.run "serve"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic in config" `Quick test_generate_deterministic;
          Alcotest.test_case "well-formed schedule" `Quick test_generate_well_formed;
          Alcotest.test_case "diurnal shape" `Quick test_generate_diurnal_shape;
        ] );
      ( "admission",
        [
          Alcotest.test_case "shed on depth" `Quick test_admission_shed_on_depth;
          Alcotest.test_case "reject on backlog" `Quick test_admission_reject_on_backlog;
          Alcotest.test_case "oversized admits when idle" `Quick
            test_admission_oversized_admits_when_idle;
          Alcotest.test_case "take batch FIFO" `Quick test_admission_take_batch_fifo;
        ] );
      ( "server",
        [
          Alcotest.test_case "D=1 vs D=4 invariance" `Quick test_sharded_domain_invariance;
          Alcotest.test_case "traced D=1 vs D=4 categories" `Quick
            test_sharded_traced_domain_invariance;
          Alcotest.test_case "shed rate monotone" `Quick test_shed_rate_monotone;
          Alcotest.test_case "no permanent starvation" `Quick
            test_server_no_permanent_starvation;
          Alcotest.test_case "soak recovers under traffic" `Quick test_soak_recovers_under_traffic;
          Alcotest.test_case "soak preserves service" `Quick test_soak_preserves_service;
          Alcotest.test_case "metrics recorded" `Quick test_metrics_recorded;
        ] );
      ( "golden",
        [
          Alcotest.test_case "default quiet json" `Quick test_golden_quiet;
          Alcotest.test_case "default soak json" `Quick test_golden_soak;
        ] );
    ]
