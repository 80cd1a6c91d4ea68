(** The one shard executor behind [Fleet.run_sharded] and
    [Server.run_sharded].

    A plan cuts [procs] tenants into contiguous [(first, count)]
    blocks.  [run] executes one slice per block and hands it the
    shard's private inputs: a seed from {!seed_for}, the pid base
    [first + 1] (every tenant keeps the pid it holds in a one-shard
    run) and a fresh metrics registry.  A shard also gets a trace
    recorder iff the caller has one installed, and an injector session
    iff [?faults] is given; both sit in the executing domain's ambient
    slots for the duration of the slice only.

    The plan and every per-shard input depend on [(procs, shards)] and
    the run seed alone — never on [domains] — and results come back in
    shard order, so merged outputs are bit-identical for any domain
    count.  At [domains = 1] the shards run in the calling domain (no
    pool is spawned); the caller's recorder and injector session are
    set aside meanwhile and restored afterwards, so a shard never sees
    them.  See DESIGN.md §13. *)

open Sentry_obs
module Injector = Sentry_faults.Injector
module Plan = Sentry_faults.Plan

type 'a t = {
  domains : int;  (** domains that executed the plan *)
  seed : int;  (** run seed; shard [s] ran with [seed_for ~seed s] *)
  plan : (int * int) list;  (** [(first, count)] per shard *)
  results : 'a list;  (** slice results, in shard order *)
  faults_fired : int list;  (** injector firings per shard, in shard order *)
  wall_s : float;  (** host time over the whole execution *)
  merged_metrics : Metrics.t;  (** shard registries merged in shard order *)
  merged_recorder : Trace.Recorder.t option;
      (** shard recorders merged in shard order; [None] unless the
          caller had a recorder installed *)
}

let default_shards ~procs = max 1 (min procs 16)

(* Contiguous blocks of ceil(procs/shards) tenants: a pure function of
   (procs, shards), which is what makes D=1 and D=4 runs merge to
   identical outputs. *)
let plan ~procs ~shards =
  let shards = max 1 (min shards procs) in
  let block = (procs + shards - 1) / shards in
  let rec go s acc =
    let first = s * block in
    if first >= procs then List.rev acc else go (s + 1) ((first, min block (procs - first)) :: acc)
  in
  go 0 []

(* Any injective map of the shard index works; the spread keeps
   neighbouring shards' PRNG streams unrelated.  Shard 0 keeps the run
   seed, so a one-shard plan is seeded exactly like the run. *)
let seed_for ~seed shard_index = seed + (shard_index * 7919)

(* One shard, in whichever domain runs it: install the shard's
   recorder and fault session, run the slice, and tear both down even
   on raise so a pooled worker never leaks them into its next job. *)
let shard ~trace_capacity ~faults ~seed ~slice s (first, count) () =
  let recorder =
    Option.map
      (fun capacity ->
        let r = Trace.Recorder.create ~capacity () in
        Trace.install r;
        r)
      trace_capacity
  in
  let session =
    Option.map
      (fun (p : Plan.t) ->
        let sess = Injector.create { p with Plan.seed = p.Plan.seed + s } in
        Injector.activate sess;
        sess)
      faults
  in
  Fun.protect
    ~finally:(fun () ->
      Injector.deactivate ();
      Trace.uninstall ())
    (fun () ->
      let metrics = Metrics.create () in
      let result = slice ~seed:(seed_for ~seed s) ~pid_base:(first + 1) ~first ~count ~metrics in
      let fired = Option.fold ~none:0 ~some:(fun x -> List.length (Injector.fired_of x)) session in
      (result, metrics, recorder, fired))

(* Run the tasks in the calling domain with its ambient slots cleared,
   restoring them afterwards: each shard starts untraced and disarmed,
   exactly as on a fresh pool worker. *)
let in_caller tasks =
  let recorder = Trace.installed () and session = Injector.current () in
  Trace.uninstall ();
  Injector.deactivate ();
  Fun.protect
    ~finally:(fun () ->
      Option.iter Trace.install recorder;
      Option.iter Injector.activate session)
    (fun () -> List.map (fun task -> task ()) tasks)

(* Fold shard outputs in shard order.  A one-shard plan hands back its
   shard's own registry or recorder: merging it into an empty
   accumulator would only copy it. *)
let in_order merge empty = function [ x ] -> x | xs -> List.fold_left merge (empty ()) xs

let run ?shards ?faults ~seed ~domains ~procs slice =
  if domains <= 0 then invalid_arg "Shard.run: domains must be positive";
  let shards =
    match shards with
    | Some s when s <= 0 -> invalid_arg "Shard.run: shards must be positive"
    | Some s -> s
    | None -> default_shards ~procs
  in
  let plan = plan ~procs ~shards in
  (* Shards trace iff the caller traces, into recorders of the same
     capacity.  Decided here: pool workers start with empty slots. *)
  let trace_capacity =
    Option.map (fun r -> (Trace.Recorder.stats r).Trace.capacity) (Trace.installed ())
  in
  let tasks = List.mapi (shard ~trace_capacity ~faults ~seed ~slice) plan in
  let t0 = Unix.gettimeofday () in
  let outs = if domains = 1 then in_caller tasks else Sentry_util.Dpool.run ~domains tasks in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    domains;
    seed;
    plan;
    results = List.map (fun (r, _, _, _) -> r) outs;
    faults_fired = List.map (fun (_, _, _, n) -> n) outs;
    wall_s;
    merged_metrics = in_order Metrics.merge Metrics.create (List.map (fun (_, m, _, _) -> m) outs);
    merged_recorder =
      (match List.filter_map (fun (_, _, r, _) -> r) outs with
      | [] -> None
      | rs -> Some (in_order Trace.Recorder.merge (fun () -> Trace.Recorder.create ~capacity:1 ()) rs));
  }

let pp shard_line ppf t =
  let plural n = if n = 1 then "" else "s" in
  Fmt.pf ppf "%d shard%s on %d domain%s, %.1f ms wall@\n" (List.length t.plan)
    (plural (List.length t.plan))
    t.domains (plural t.domains)
    (t.wall_s *. 1e3);
  let faulted = List.exists (fun n -> n > 0) t.faults_fired in
  List.iteri
    (fun s (((first, count), result), fired) ->
      Fmt.pf ppf "  shard %d: tenants %d..%d  pids %d..%d  seed %d  %a" s first (first + count - 1)
        (first + 1) (first + count) (seed_for ~seed:t.seed s) shard_line result;
      if faulted then Fmt.pf ppf "  %d faults fired" fired;
      Fmt.pf ppf "@\n")
    (List.combine (List.combine t.plan t.results) t.faults_fired)
