(** Harvest a driven system's counters into a metrics registry.

    One call walks every component that keeps statistics — bus, L2,
    CPU, scheduler, zerod, page crypt, background pager, lock state,
    the trace recorder itself — and lands them under stable
    ["subsystem/name"] keys, with span durations from the trace ring
    folded into log-scale histograms (so the flat report carries
    p50/p95/p99 per span kind).  The flat form is what
    [BENCH_sentry.json] and [sentry-cli trace --metrics] serialise. *)

open Sentry_soc
open Sentry_obs

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let set m ~subsystem pairs = Metrics.set_many m ~subsystem pairs

let f = float_of_int

(** Fold every retained [Complete] span into a per-(subsystem, name)
    duration histogram. *)
let observe_spans m events =
  List.iter
    (fun (e : Event.t) ->
      match e.Event.phase with
      | Event.Complete dur_ns ->
          Metrics.observe
            (Metrics.histogram m ~subsystem:e.Event.subsystem (e.Event.name ^ "_dur_ns"))
            dur_ns
      | Event.Instant | Event.Counter -> ())
    events

(** [collect ?recorder sentry] — a fresh registry populated from the
    machine and kernel state behind [sentry], plus the trace recorder
    ([recorder] when threaded explicitly, else the ambient one). *)
let collect ?recorder sentry =
  let recorder = match recorder with Some _ as r -> r | None -> Trace.installed () in
  let m = Metrics.create () in
  let system = Sentry.system sentry in
  let machine = System.machine system in
  set m ~subsystem:"soc.clock" [ ("now_ns", Clock.now (Machine.clock machine)) ];
  let txns, bytes_read, bytes_written = Bus.stats (Machine.bus machine) in
  set m ~subsystem:"soc.bus"
    [
      ("transactions", f txns);
      ("bytes_read", f bytes_read);
      ("bytes_written", f bytes_written);
    ];
  let l2 = Machine.l2 machine in
  let cs = Pl310.stats l2 in
  set m ~subsystem:"soc.l2"
    [
      ("hits", f cs.Pl310.hits);
      ("misses", f cs.Pl310.misses);
      ("writebacks", f cs.Pl310.writebacks);
      ("bypasses", f cs.Pl310.bypasses);
      ("hit_rate", Pl310.hit_rate l2);
      ("locked_ways", f (popcount (Pl310.lockdown l2)));
    ];
  set m ~subsystem:"soc.cpu"
    [ ("max_irq_window_ns", Cpu.max_irq_window_ns (Machine.cpu machine)) ];
  set m ~subsystem:"soc.energy"
    (("total_j", Energy.total (Machine.energy machine))
    :: List.map
         (fun (cat, j) -> (cat ^ "_j", j))
         (Energy.categories (Machine.energy machine)));
  let switches, spills = Sentry_kernel.Sched.stats system.System.sched in
  set m ~subsystem:"kernel.sched" [ ("context_switches", f switches); ("register_spills", f spills) ];
  set m ~subsystem:"kernel.zerod"
    [ ("pages_zeroed", f (Sentry_kernel.Zerod.pages_zeroed system.System.zerod)) ];
  let faults =
    List.fold_left
      (fun acc p -> acc + p.Sentry_kernel.Process.faults)
      0 system.System.procs
  in
  set m ~subsystem:"kernel.vm" [ ("faults", f faults) ];
  let enc, dec = Page_crypt.counters (Sentry.page_crypt sentry) in
  set m ~subsystem:"core.page_crypt" [ ("bytes_encrypted", f enc); ("bytes_decrypted", f dec) ];
  (match Sentry.background_engine sentry with
  | Some bg ->
      let ins, outs = Background.stats bg in
      set m ~subsystem:"core.background"
        [
          ("page_ins", f ins);
          ("page_outs", f outs);
          ("resident_pages", f (Background.resident_pages bg));
        ]
  | None -> ());
  let locks, unlocks, failed = Lock_state.counts (Sentry.lock_state sentry) in
  set m ~subsystem:"core.lock_state"
    [ ("locks", f locks); ("unlocks", f unlocks); ("failed_attempts", f failed) ];
  (match Sentry.last_lock_stats sentry with
  | Some s ->
      set m ~subsystem:"core.lock_path"
        [
          ("pages_encrypted", f s.Encrypt_on_lock.pages_encrypted);
          ("pages_skipped_shared", f s.Encrypt_on_lock.pages_skipped_shared);
          ("freed_pages_zeroed", f s.Encrypt_on_lock.freed_pages_zeroed);
          ("elapsed_ns", s.Encrypt_on_lock.elapsed_ns);
          ("energy_j", s.Encrypt_on_lock.energy_j);
        ]
  | None -> ());
  (match Sentry.last_unlock_stats sentry with
  | Some s ->
      set m ~subsystem:"core.unlock_path"
        [
          ("dma_pages_eager", f s.Decrypt_on_unlock.dma_pages_eager);
          ("elapsed_ns", s.Decrypt_on_unlock.elapsed_ns);
          ("energy_j", s.Decrypt_on_unlock.energy_j);
        ]
  | None -> ());
  (match Sentry.last_recovery_stats sentry with
  | Some r ->
      set m ~subsystem:"core.recovery"
        [
          ( "resumed_lock",
            match r.Sentry.resumed with Sentry.Resumed_lock -> 1. | Sentry.Rolled_back_unlock -> 0.
          );
          ("pages_fixed", f r.Sentry.pages_fixed);
          ("rekeyed", if r.Sentry.rekeyed then 1. else 0.);
          ("journal_survived", if r.Sentry.journal_entry <> None then 1. else 0.);
          ("elapsed_ns", r.Sentry.elapsed_ns);
        ]
  | None -> ());
  let ts =
    match recorder with
    | Some r -> Trace.Recorder.stats r
    | None -> { Trace.emitted = 0; dropped = 0; capacity = 0 }
  in
  set m ~subsystem:"obs.trace"
    (("events_emitted", f ts.Trace.emitted)
    :: ("events_dropped", f ts.Trace.dropped)
    :: ("ring_capacity", f ts.Trace.capacity)
    :: List.map
         (fun (cat, n) -> ("cat_" ^ Event.category_name cat, f n))
         (match recorder with Some r -> Trace.Recorder.category_counts r | None -> []));
  observe_spans m (match recorder with Some r -> Trace.Recorder.events r | None -> []);
  m

(** Flat [(key, value)] report, sorted by key. *)
let flat ?recorder sentry = Metrics.flat (collect ?recorder sentry)
