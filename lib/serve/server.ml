(** Sentry-as-a-service: an open-loop lock/unlock server over the
    batched pipeline.

    The server boots a private [System], pre-spawns a tenant pool with
    the fleet's heterogeneous footprints (every 4th tenant large with
    a DMA region, every 4k+3rd small, the rest medium), locks the
    device, and then drains an {!Arrivals} schedule through a
    {!Admission} queue in batches: each cycle PIN-unlocks, serves
    every request in the batch by faulting in its tenant's first page
    (sampling simulated queue-wait and unlock-to-first-touch per
    tenant class), and re-locks through the installed protection
    backend ([Sentry.backend]).  Arrivals
    are open loop — they land on the simulated clock whether or not
    the queue drains, so overload shows up as [Shed]/[Rejected]
    verdicts rather than as a conveniently slower generator.

    {b Chaos soak.}  With [soak] on, every [soak_period]-th re-lock
    runs under an armed {!Sentry_faults.Injector} session that kills
    the walk at the first page boundary — a software crash: the lock
    daemon dies, the SoC stays powered, so the volatile key survives
    and serving can continue.  The server immediately runs
    [Sentry.recover] (roll-forward to Locked), audits
    [Checkers.Locked_state_consistent], and keeps draining — arrivals
    never stop for a crash.

    {b Sharding.}  [run_sharded] runs contiguous tenant shards through
    the fleet's {!Sentry_workloads.Shard} executor: every shard
    regenerates the full arrival schedule from the run seed (a pure
    function) and filters out its own tenants, and owns a private
    [System] / admission queue / metrics registry / trace recorder /
    injector sessions.  The partition and every per-shard input depend
    only on [(tenants, shards)] — never the domain count — so merged
    outputs are bit-identical across [D].  [run] is the one-shard
    plan. *)

open Sentry_soc
open Sentry_kernel
open Sentry_core
module Fleet = Sentry_workloads.Fleet
module Shard = Sentry_workloads.Shard
module Injector = Sentry_faults.Injector
module Plan = Sentry_faults.Plan
module Fault = Sentry_faults.Fault
module Checkers = Sentry_analysis.Checkers

type config = {
  tenants : int;  (** pool size (fleet tenant-class mix by index) *)
  pages_per_proc : int;  (** medium tenant main-region pages *)
  rate_hz : float;  (** base Poisson arrival rate (simulated Hz) *)
  burst : float;  (** peak-quarter multiplier (diurnal profile) *)
  duration_s : float;  (** simulated arrival-generation span *)
  queue_depth : int;  (** admission FIFO depth (per shard) *)
  backlog_pages_max : int;  (** page backlog cap (journal/iRAM model) *)
  batch_max : int;  (** requests served per unlock/lock cycle *)
  seed : int;
  soak : bool;  (** inject crashes into periodic re-locks *)
  soak_period : int;  (** crash every Nth batch when soaking *)
  backend : Sentry.backend;
}

let default =
  {
    tenants = 8;
    pages_per_proc = 8;
    rate_hz = 40.0;
    burst = 3.0;
    duration_s = 2.0;
    queue_depth = 64;
    backlog_pages_max = 512;
    batch_max = 8;
    seed = 7;
    soak = false;
    soak_period = 4;
    backend = Sentry.Batched;
  }

type dist = Fleet.latency = {
  count : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
}

type stats = {
  config : config;
  requests : int;  (** arrivals offered to admission *)
  served : int;
  shed : int;  (** queue-depth overflow drops *)
  rejected : int;  (** page-backlog saturation drops *)
  batches : int;  (** unlock → serve → lock cycles run *)
  crashes_injected : int;  (** soak crashes that actually fired *)
  recoveries : int;  (** successful [Sentry.recover] passes *)
  audit_findings : int;  (** post-recovery consistency findings (want 0) *)
  pages_locked : int;  (** summed over completed lock passes *)
  pages_fixed : int;  (** pages rolled forward by recovery *)
  pages_faulted : int;  (** lazy decrypt faults served *)
  shed_rate : float;  (** (shed + rejected) / requests, 0 when idle *)
  latency_samples : (string * float) list;
      (** (tenant_class, unlock_to_first_touch_ns) in service order *)
  queue_wait_samples : (string * float) list;
      (** (tenant_class, queue_wait_ns) in service order *)
  latency_by_class : (string * dist) list;
  queue_wait_by_class : (string * dist) list;
  sim_elapsed_ns : float;
  energy_j : float;
}

let validate (cfg : config) =
  if cfg.tenants <= 0 || cfg.pages_per_proc <= 0 then
    invalid_arg "Server.run: tenants and pages_per_proc must be positive";
  if cfg.rate_hz <= 0.0 || cfg.duration_s <= 0.0 then
    invalid_arg "Server.run: rate_hz and duration_s must be positive";
  if cfg.queue_depth <= 0 || cfg.backlog_pages_max <= 0 || cfg.batch_max <= 0 then
    invalid_arg "Server.run: queue_depth, backlog_pages_max and batch_max must be positive";
  if cfg.soak_period <= 0 then invalid_arg "Server.run: soak_period must be positive"

(* The decrypt/re-encrypt footprint a request costs the pipeline: its
   first-touch page plus the tenant's eager-DMA churn (large tenants
   re-decrypt their DMA region on every unlock).  This is what the
   admission backlog charges against the journal/iRAM cap. *)
let request_pages ~pages_per_proc (r : Arrivals.request) =
  1 + Fleet.dma_pages_for ~index:r.Arrivals.tenant ~pages_per_proc

(** Record one shard's samples and counters into its registry — the
    labeled fan-in [Shard.run] merges.  The shed-rate gauge is
    deliberately {e not} recorded here: a rate does not merge by
    last-writer-wins, so [run_sharded] sets it once over merged
    counts. *)
let record_into metrics (s : stats) =
  let hist name samples =
    List.iter
      (fun (cls, ns) ->
        Sentry_obs.Metrics.observe
          (Sentry_obs.Metrics.histogram metrics ~subsystem:"serve"
             ~labels:[ ("tenant_class", cls) ]
             name)
          ns)
      samples
  in
  hist "unlock_to_first_touch_ns" s.latency_samples;
  hist "queue_wait_ns" s.queue_wait_samples;
  let count name v =
    Sentry_obs.Metrics.inc ~by:v (Sentry_obs.Metrics.counter metrics ~subsystem:"serve" name)
  in
  count "requests_total" s.requests;
  count "served_total" s.served;
  count "shed_total" s.shed;
  count "rejected_total" s.rejected;
  count "batches_total" s.batches;
  count "crashes_injected_total" s.crashes_injected;
  count "recoveries_total" s.recoveries;
  count "audit_findings_total" s.audit_findings

(* One slice: serve the sub-stream of the global schedule whose
   tenants fall in [first, first+count).  Everything simulated lives
   in a private [System], so concurrent slices share nothing. *)
let run_slice ~platform (cfg : config) ~seed ~pid_base ~first ~count ~metrics =
  let system = System.boot ~seed ~pid_base platform in
  let machine = System.machine system in
  let sentry = Sentry.install system { (Config.default platform) with Config.journal = true } in
  Sentry.set_backend sentry cfg.backend;
  (* the tenant pool, global indices — same footprint mix as the
     fleet workload so per-class tails are comparable *)
  let pool =
    Array.of_list
      (Fleet.spawn_tenants system sentry ~prefix:"serve" ~pages_per_proc:cfg.pages_per_proc ~first
         ~count)
  in
  (* every shard regenerates the full schedule from the run seed (a
     pure function) and keeps only its own tenants — so the slice's
     sub-stream is identical whether 1 or 16 shards exist around it *)
  let schedule =
    List.filter
      (fun (r : Arrivals.request) -> r.Arrivals.tenant >= first && r.Arrivals.tenant < first + count)
      (Arrivals.generate
         {
           Arrivals.rate_hz = cfg.rate_hz;
           burst = cfg.burst;
           duration_s = cfg.duration_s;
           tenants = cfg.tenants;
           seed = cfg.seed;
         })
  in
  let q = Admission.create ~depth:cfg.queue_depth ~backlog_pages_max:cfg.backlog_pages_max in
  let clock = Machine.clock machine in
  let energy0 = Energy.category (Machine.energy machine) "aes" in
  let sim0 = System.now system in
  let pin = (Sentry.config sentry).Config.pin in
  let requests = ref 0
  and served = ref 0
  and shed = ref 0
  and rejected = ref 0
  and batches = ref 0
  and crashes = ref 0
  and recoveries = ref 0
  and audit_findings = ref 0
  and pages_locked = ref 0
  and pages_fixed = ref 0
  and faulted = ref 0
  and latency = ref []
  and queue_wait = ref [] in
  (* start locked: the service's idle state is the protected one *)
  pages_locked := (Sentry.lock sentry).Encrypt_on_lock.pages_encrypted;
  let pending = ref schedule in
  let admit_until now =
    let rec go () =
      match !pending with
      | r :: rest when r.Arrivals.at_ns <= now ->
          pending := rest;
          incr requests;
          (match
             Admission.offer q ~pages:(request_pages ~pages_per_proc:cfg.pages_per_proc r) r
           with
          | Admission.Queued -> ()
          | Admission.Shed -> incr shed
          | Admission.Rejected -> incr rejected);
          go ()
      | _ -> ()
    in
    go ()
  in
  let lock_with_chaos () =
    (* arm a one-crash session around this re-lock: the walk dies at
       the first page boundary (Reset = the lock daemon crashing in
       software; the SoC stays powered, so the volatile key and the
       tenants' ciphertext survive and serving continues) *)
    let plan =
      Plan.make ~name:"serve-soak" ~seed:(cfg.seed + !batches)
        [
          Plan.trigger ~point:Injector.Points.page_encrypted ~kind:Fault.Reset ~at:(Plan.Nth 1);
        ]
    in
    let session = Injector.create plan in
    Injector.activate session;
    match Sentry.lock sentry with
    | s ->
        (* nothing to encrypt before the trigger point: no crash *)
        Injector.deactivate ();
        pages_locked := !pages_locked + s.Encrypt_on_lock.pages_encrypted
    | exception Injector.Injected _ ->
        Injector.deactivate ();
        incr crashes;
        (match Sentry.recover sentry with
        | Some r ->
            incr recoveries;
            pages_fixed := !pages_fixed + r.Sentry.pages_fixed
        | None -> ());
        (* the whole point of the soak: after every injected crash the
           lock state machine, PTE bits and parking must agree *)
        audit_findings :=
          !audit_findings + List.length (Checkers.Locked_state_consistent.audit sentry)
  in
  admit_until (System.now system);
  while (not (Admission.is_empty q)) || !pending <> [] do
    if Admission.is_empty q then begin
      (* idle: jump the simulated clock to the next arrival *)
      (match !pending with
      | r :: _ ->
          let now = System.now system in
          if r.Arrivals.at_ns > now then Clock.advance clock (r.Arrivals.at_ns -. now)
      | [] -> ());
      admit_until (System.now system)
    end
    else begin
      let batch = Admission.take_batch q ~max:cfg.batch_max in
      incr batches;
      let service_start = System.now system in
      List.iter
        (fun (r : Arrivals.request) ->
          queue_wait := (r.Arrivals.cls, service_start -. r.Arrivals.at_ns) :: !queue_wait)
        batch;
      (match Sentry.unlock sentry ~pin with
      | Ok _ -> ()
      | Error _ -> failwith "Server.run: unlock failed");
      List.iter
        (fun (r : Arrivals.request) ->
          let proc, region, _ = pool.(r.Arrivals.tenant - first) in
          Vm.touch system.System.vm proc ~vaddr:region.Address_space.vstart;
          incr faulted;
          incr served;
          latency := (r.Arrivals.cls, System.now system -. r.Arrivals.at_ns) :: !latency)
        batch;
      if cfg.soak && !batches mod cfg.soak_period = 0 then lock_with_chaos ()
      else pages_locked := !pages_locked + (Sentry.lock sentry).Encrypt_on_lock.pages_encrypted;
      (* service took simulated time; arrivals that landed during the
         cycle queue up now (open loop: their timestamps don't move) *)
      admit_until (System.now system)
    end
  done;
  let latency = List.rev !latency and queue_wait = List.rev !queue_wait in
  let stats =
    {
      config = { cfg with tenants = count };
      requests = !requests;
      served = !served;
      shed = !shed;
      rejected = !rejected;
      batches = !batches;
      crashes_injected = !crashes;
      recoveries = !recoveries;
      audit_findings = !audit_findings;
      pages_locked = !pages_locked;
      pages_fixed = !pages_fixed;
      pages_faulted = !faulted;
      shed_rate =
        (if !requests = 0 then 0.0 else float_of_int (!shed + !rejected) /. float_of_int !requests);
      latency_samples = latency;
      queue_wait_samples = queue_wait;
      latency_by_class = Fleet.summarize_by_class latency;
      queue_wait_by_class = Fleet.summarize_by_class queue_wait;
      sim_elapsed_ns = System.now system -. sim0;
      energy_j = Energy.category (Machine.energy machine) "aes" -. energy0;
    }
  in
  record_into metrics stats;
  stats

(* ------------------------------ sharding --------------------------- *)

type sharded = { merged : stats; shards : stats Shard.t }

(* A single shard's stats already are the merge (same config, rates
   and summaries), so the one-shard plan skips the refold. *)
let merge_stats (cfg : config) = function
  | [ s ] -> { s with config = cfg }
  | stats_list ->
    let sum f = List.fold_left (fun a s -> a + f s) 0 stats_list in
    let latency = List.concat_map (fun s -> s.latency_samples) stats_list in
    let queue_wait = List.concat_map (fun s -> s.queue_wait_samples) stats_list in
    let requests = sum (fun s -> s.requests) in
    let dropped = sum (fun s -> s.shed) + sum (fun s -> s.rejected) in
    {
      config = cfg;
      requests;
      served = sum (fun s -> s.served);
      shed = sum (fun s -> s.shed);
      rejected = sum (fun s -> s.rejected);
      batches = sum (fun s -> s.batches);
      crashes_injected = sum (fun s -> s.crashes_injected);
      recoveries = sum (fun s -> s.recoveries);
      audit_findings = sum (fun s -> s.audit_findings);
      pages_locked = sum (fun s -> s.pages_locked);
      pages_fixed = sum (fun s -> s.pages_fixed);
      pages_faulted = sum (fun s -> s.pages_faulted);
      shed_rate = (if requests = 0 then 0.0 else float_of_int dropped /. float_of_int requests);
      latency_samples = latency;
      queue_wait_samples = queue_wait;
      latency_by_class = Fleet.summarize_by_class latency;
      queue_wait_by_class = Fleet.summarize_by_class queue_wait;
      (* shards serve concurrently in simulated time: the service's
         elapsed time is the slowest shard's, not the sum *)
      sim_elapsed_ns =
        List.fold_left (fun a s -> Float.max a s.sim_elapsed_ns) 0.0 stats_list;
      energy_j = List.fold_left (fun a s -> a +. s.energy_j) 0.0 stats_list;
    }

let run_sharded ?(platform = `Tegra3) ?shards ~domains (cfg : config) =
  validate cfg;
  let shards =
    Shard.run ?shards ~seed:cfg.seed ~domains ~procs:cfg.tenants
      (run_slice ~platform cfg)
  in
  let merged = merge_stats cfg shards.Shard.results in
  (* the shed-rate gauge, set once over the merged counts *)
  Sentry_obs.Metrics.set_at
    (Sentry_obs.Metrics.gauge shards.Shard.merged_metrics ~subsystem:"serve" "shed_rate")
    ~ts:merged.sim_elapsed_ns merged.shed_rate;
  { merged; shards }

let run ?platform (cfg : config) = (run_sharded ?platform ~shards:1 ~domains:1 cfg).merged

(* Machine-readable stats: only simulated / deterministic fields, so
   the document is bit-identical across domain counts (the D=1 vs D=4
   differential test compares the serialized strings).  Host wall time
   lives in the shard run's [wall_s] and the human-readable output
   only. *)
let json (s : stats) =
  let open Sentry_obs in
  Json_out.Obj
    [
      ("tenants", Json_out.Int s.config.tenants);
      ("pages_per_proc", Json_out.Int s.config.pages_per_proc);
      ("rate_hz", Json_out.Float s.config.rate_hz);
      ("burst", Json_out.Float s.config.burst);
      ("duration_s", Json_out.Float s.config.duration_s);
      ("queue_depth", Json_out.Int s.config.queue_depth);
      ("backlog_pages_max", Json_out.Int s.config.backlog_pages_max);
      ("batch_max", Json_out.Int s.config.batch_max);
      ("seed", Json_out.Int s.config.seed);
      ("soak", Json_out.Bool s.config.soak);
      ("backend", Json_out.Str (Backend.kind_name s.config.backend));
      ("requests", Json_out.Int s.requests);
      ("served", Json_out.Int s.served);
      ("shed", Json_out.Int s.shed);
      ("rejected", Json_out.Int s.rejected);
      ("batches", Json_out.Int s.batches);
      ("crashes_injected", Json_out.Int s.crashes_injected);
      ("recoveries", Json_out.Int s.recoveries);
      ("audit_findings", Json_out.Int s.audit_findings);
      ("pages_locked", Json_out.Int s.pages_locked);
      ("pages_fixed", Json_out.Int s.pages_fixed);
      ("pages_faulted", Json_out.Int s.pages_faulted);
      ("shed_rate", Json_out.Float s.shed_rate);
      ( "unlock_to_first_touch_by_class",
        Json_out.Obj (List.map Fleet.latency_json s.latency_by_class) );
      ("queue_wait_by_class", Json_out.Obj (List.map Fleet.latency_json s.queue_wait_by_class));
      ("sim_elapsed_ns", Json_out.Float s.sim_elapsed_ns);
      ("energy_j", Json_out.Float s.energy_j);
    ]

let pp_dist ppf (cls, d) =
  Fmt.pf ppf "  %-7s n=%-4d p50 %.1f us  p99 %.1f us  p999 %.1f us  max %.1f us" cls d.count
    (d.p50_ns /. 1e3) (d.p99_ns /. 1e3) (d.p999_ns /. 1e3) (d.max_ns /. 1e3)

let pp ppf (s : stats) =
  Fmt.pf ppf
    "serve: %d tenants, %.0f req/s base (burst %.1fx) over %.1f s simulated@\n\
    \  requests            %d (served %d, shed %d, rejected %d; shed rate %.3f)@\n\
    \  batches             %d (max %d requests each)@\n\
    \  chaos               %d crash(es) injected, %d recovered, %d audit finding(s)@\n\
    \  pages               %d locked, %d rolled forward, %d faulted in"
    s.config.tenants s.config.rate_hz s.config.burst s.config.duration_s s.requests s.served
    s.shed s.rejected s.shed_rate s.batches s.config.batch_max s.crashes_injected s.recoveries
    s.audit_findings s.pages_locked s.pages_fixed s.pages_faulted;
  if s.latency_by_class <> [] then begin
    Fmt.pf ppf "@\n  unlock -> first touch:";
    List.iter (fun d -> Fmt.pf ppf "@\n%a" pp_dist d) s.latency_by_class
  end;
  if s.queue_wait_by_class <> [] then begin
    Fmt.pf ppf "@\n  queue wait:";
    List.iter (fun d -> Fmt.pf ppf "@\n%a" pp_dist d) s.queue_wait_by_class
  end;
  Fmt.pf ppf "@\n  simulated time      %.2f ms, AES energy %.3f J" (s.sim_elapsed_ns /. 1e6)
    s.energy_j

let pp_sharded ppf (s : sharded) =
  Fmt.pf ppf "serve (sharded): %a"
    (Shard.pp (fun ppf (st : stats) -> Fmt.pf ppf "%d served  %d shed" st.served st.shed))
    s.shards;
  pp ppf s.merged
