(** The fault-injection engine.

    A {!session} is an explicit handle: a [Plan] plus its PRNG,
    per-point occurrence counters and firing log.  Harnesses create
    one, activate it, drive the workload, and read [fired_of]/
    [occurrences_of] back off the handle — so two sharded machines can
    each own a session once the Domains refactor lands.

    Hook points deep in the memory system ([fire]/[poll]) consult the
    calling domain's {e active} session — one domain-local read, no
    plumbing, nothing allocated while disarmed — which keeps the
    lock-path allocation ceilings intact.  The slot is [Domain.DLS],
    so every tenant shard on a pool worker owns its own session and
    arming one shard never perturbs another.

    Active with a [Plan], every [fire]/[poll] arrival at a hook point
    bumps that point's occurrence counter and evaluates the plan's
    triggers:

    - {e interrupting} kinds ([Power_loss], [Reset], [Dma_error])
      raise [Injected] from [fire]; [poll] returns [Dma_error] as a
      value (for result-returning callers like the DMA engine) and
      raises for the globally-fatal kinds;
    - [Bit_flip n] invokes the installed corruption handler (the
      machine-owning harness flips DRAM bits) and execution continues
      — the fault is silent, as in real hardware.

    Every firing is recorded (inspectable via [fired_of]) and emitted to
    the trace ring under the [Fault] category. *)

open Sentry_util

type record = { point : string; kind : Fault.kind; occurrence : int }

exception Injected of record

type session = {
  plan : Plan.t;
  prng : Prng.t;
  counts : (string, int ref) Hashtbl.t;
  mutable fired : record list; (* newest first *)
  mutable bit_flip_handler : (point:string -> bits:int -> unit) option;
}

let create plan =
  {
    plan;
    prng = Prng.create ~seed:plan.Plan.seed;
    counts = Hashtbl.create 8;
    fired = [];
    bit_flip_handler = None;
  }

let plan_of s = s.plan

(** Firings so far, oldest first. *)
let fired_of s = List.rev s.fired

(** Arrivals seen at [point] in this session. *)
let occurrences_of s point =
  match Hashtbl.find_opt s.counts point with Some c -> !c | None -> 0

(** [set_bit_flip_handler_of s f] — installed by whoever owns the
    machine; receives every [Bit_flip] firing. *)
let set_bit_flip_handler_of s f = s.bit_flip_handler <- Some f

(* ----------------------- the active session ----------------------- *)

(* The active slot is domain-local ([Domain.DLS]): each domain owns
   its own armed session, so a tenant shard running on a pool worker
   activates a per-shard session without racing the main domain's (or
   any sibling shard's).  Freshly spawned domains start disarmed —
   faults inside a shard are an explicit activate, never inherited.
   This retired the R1 lint.allow entry the old [ref] needed. *)
let active_key : session option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get active_key

let activate s = Domain.DLS.set active_key (Some s)
let deactivate () = Domain.DLS.set active_key None

(* --------------------------- hook points -------------------------- *)

let trace r =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~cat:Sentry_obs.Event.Fault ~subsystem:"faults.injector"
      "fault-injected"
      ~args:
        [
          ("point", Sentry_obs.Event.Str r.point);
          ("kind", Sentry_obs.Event.Str (Fault.name r.kind));
          ("occurrence", Sentry_obs.Event.Int r.occurrence);
        ]

let bump s point =
  match Hashtbl.find_opt s.counts point with
  | Some c ->
      incr c;
      !c
  | None ->
      Hashtbl.add s.counts point (ref 1);
      1

let matches s ~n (tr : Plan.trigger) =
  match tr.Plan.at with
  | Plan.Nth k -> n = k
  | Plan.Every k -> k > 0 && n mod k = 0
  | Plan.Prob p -> Prng.flip s.prng ~p

(* Evaluate one arrival: record and apply every matching trigger;
   return the first interrupting fault, if any. *)
let eval s point =
  let n = bump s point in
  List.fold_left
    (fun interrupting (tr : Plan.trigger) ->
      if String.equal tr.Plan.point point && matches s ~n tr then begin
        let r = { point; kind = tr.Plan.kind; occurrence = n } in
        s.fired <- r :: s.fired;
        trace r;
        match tr.Plan.kind with
        | Fault.Bit_flip bits ->
            (match s.bit_flip_handler with Some f -> f ~point ~bits | None -> ());
            interrupting
        | Fault.Power_loss | Fault.Reset | Fault.Dma_error -> (
            match interrupting with Some _ -> interrupting | None -> Some r)
      end
      else interrupting)
    None s.plan.Plan.triggers

(** [fire point] — a hook arrival that cannot report an error value:
    interrupting faults propagate as [Injected]. *)
let fire point =
  match current () with
  | None -> ()
  | Some s -> ( match eval s point with None -> () | Some r -> raise (Injected r))

(** [poll point] — a hook arrival whose caller returns [result]s (the
    DMA engine): a matching [Dma_error] comes back as a value; the
    globally-fatal kinds ([Power_loss], [Reset]) still raise. *)
let poll point =
  match current () with
  | None -> None
  | Some s -> (
      match eval s point with
      | None -> None
      | Some ({ kind = Fault.Dma_error; _ } as r) -> Some r
      | Some r -> raise (Injected r))

(** Canonical hook-point names.  Hooks and plans must agree on these
    strings; keeping them here prevents drift. *)
module Points = struct
  let page_encrypted = "page_crypt.encrypt_frame"
  (* after the ciphertext reached memory, before the PTE flags it *)

  let page_decrypted = "page_crypt.decrypt_frame"
  let frame_transform = "page_crypt.frame_transform" (* mid-call, before write-back *)
  let dm_crypt_sector = "dm_crypt.sector"
  let dma_read = "dma.read"
  let dma_write = "dma.write"
  let machine_write = "machine.write"

  let all =
    [
      page_encrypted;
      page_decrypted;
      frame_transform;
      dm_crypt_sector;
      dma_read;
      dma_write;
      machine_write;
    ]
end
