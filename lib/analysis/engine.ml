(** The checker engine: wires a checker set into a live [Sentry.t]'s
    machine and accumulates violations.

    Event sources:
    - lock-state transitions ([Lock_state.on_transition]);
    - every external-bus transaction ([Bus.attach_monitor]);
    - every dirty-line writeback ([Pl310.set_writeback_hook]);
    - every device-initiated DMA read ([Dma.set_read_hook]);
    - explicit sweeps ([check_now]).

    Checkers are read-only, but a content-based rule may legitimately
    touch the simulated memory system (e.g. reading the root key back
    from on-SoC storage); the [dispatching] latch drops any events
    such an access would generate, so evaluation never recurses. *)

open Sentry_soc
open Sentry_core

type t = {
  sentry : Sentry.t;
  checkers : Checker.packed list;
  mutable violations : Checker.violation list; (* newest first *)
  mutable events_seen : int;
  mutable detach_bus : (unit -> unit) option;
  mutable dispatching : bool;
}

let dispatch t event =
  if not t.dispatching then begin
    t.dispatching <- true;
    Fun.protect
      ~finally:(fun () -> t.dispatching <- false)
      (fun () ->
        t.events_seen <- t.events_seen + 1;
        let vs = List.concat_map (Checker.run_packed t.sentry event) t.checkers in
        if Sentry_obs.Trace.on () then
          List.iter
            (fun v ->
              Sentry_obs.Trace.emit ~ts:v.Checker.time_ns ~cat:Sentry_obs.Event.Taint
                ~subsystem:"analysis.engine" "taint-violation"
                ~args:
                  [
                    ("checker", Sentry_obs.Event.Str v.Checker.checker);
                    ("message", Sentry_obs.Event.Str v.Checker.message);
                  ])
            vs;
        t.violations <- List.rev_append vs t.violations)
  end

(** [attach ?checkers sentry] — hook the engine into the machine.
    Enables taint tracking if the configuration did not already (the
    shadow stores may then miss writes that predate this call). *)
let attach ?(checkers = Checkers.all) sentry =
  let t =
    {
      sentry;
      checkers;
      violations = [];
      events_seen = 0;
      detach_bus = None;
      dispatching = false;
    }
  in
  let m = System.machine (Sentry.system sentry) in
  if not (Machine.taint_enabled m) then Machine.enable_taint m;
  t.detach_bus <-
    Some (Bus.attach_monitor (Machine.bus m) (fun txn -> dispatch t (Checker.Bus_txn txn)));
  Pl310.set_writeback_hook (Machine.l2 m) (fun ~way ~addr ~locked ->
      dispatch t (Checker.Eviction { way; addr; locked }));
  Dma.set_read_hook (Machine.dma m) (fun ~addr ~len ~taint ->
      dispatch t (Checker.Dma_read { addr; len; taint }));
  Lock_state.on_transition (Sentry.lock_state sentry) (fun ~old_state ~new_state ->
      dispatch t (Checker.Transition { old_state; new_state }));
  t

let detach t =
  let m = System.machine (Sentry.system t.sentry) in
  (match t.detach_bus with
  | Some f ->
      f ();
      t.detach_bus <- None
  | None -> ());
  Pl310.clear_writeback_hook (Machine.l2 m);
  Dma.clear_read_hook (Machine.dma m);
  Lock_state.clear_observers (Sentry.lock_state t.sentry)

(** Run every checker against the machine as it stands. *)
let check_now t = dispatch t Checker.On_demand

(** All recorded violations, oldest first. *)
let violations t = List.rev t.violations

let events_seen t = t.events_seen
let clear t = t.violations <- []

(** Violations recorded against a specific rule. *)
let violations_of t name =
  List.filter (fun v -> String.equal v.Checker.checker name) (violations t)

(** Human-readable report: per-rule counts, then each violation. *)
let report t =
  let buf = Buffer.create 256 in
  let vs = violations t in
  Buffer.add_string buf
    (Printf.sprintf "%d violation(s) over %d event(s)\n" (List.length vs) t.events_seen);
  List.iter
    (fun (Checker.Packed (module C)) ->
      let n = List.length (violations_of t C.name) in
      Buffer.add_string buf (Printf.sprintf "  %-45s %s\n" C.name
           (if n = 0 then "ok" else Printf.sprintf "%d VIOLATION(S)" n)))
    t.checkers;
  List.iter (fun v -> Buffer.add_string buf ("  ! " ^ Checker.violation_to_string v ^ "\n")) vs;
  Buffer.contents buf
