(** The trace recorder: a bounded ring buffer of [Event.t].

    A recorder is an explicit {!Recorder.t} handle — the owner of a
    simulated machine creates one, threads it to whatever harvests
    events, and reads it back.  Handles are what the multicore sharded
    fleet needs: one recorder per tenant shard, merged after the run
    with {!Recorder.merge}.

    Hot-path emitters deep in the memory system still go through the
    {e ambient} recorder — the handle installed in the {e calling
    domain}'s [Domain.DLS] slot — because threading a handle through
    every cache access would cost the zero-allocation fast path its
    shape.  The slot is domain-local, so each tenant shard on a pool
    worker installs its own recorder without racing its siblings.
    Mirroring the [Config.track_taint] pattern, nothing is allocated
    and the guard is one domain-local read until a recorder is
    installed:

    {[
      if Trace.on () then
        Trace.emit ~ts:(Clock.now clock) ~cat:Event.Bus ~subsystem:"soc.bus" "read" ~args:[...]
    ]}

    so the disabled path neither allocates the argument list nor
    builds the event.

    {b Causal spans.}  Each recorder carries a span-id counter and a
    stack of open spans on the simulated clock.  [enter_span] pushes a
    frame (its parent is whatever frame was on top); [exit_span] pops
    it and emits the [Complete] event carrying both ids.  Instants and
    after-the-fact [span] calls pick up the currently open frame as
    their parent, so a fleet unlock decomposes into
    [unlock → decrypt_batch → bulk-decrypt / dma-sweep / journal]
    trees that {!Export.folded} can render as a flamegraph.

    On overflow the ring keeps the {e newest} events (oldest are
    overwritten) and counts drops — a trace of a long run always ends
    with the most recent window plus an honest drop counter. *)

type open_span = {
  id : int;
  o_parent : int;
  o_cat : Event.category;
  o_subsystem : string;
  o_name : string;
  o_start : float;
}

type t = {
  buf : Event.t option array;
  capacity : int;
  mutable total : int; (* events ever emitted into this recorder *)
  mutable carried_drops : int; (* drops inherited from merged-in recorders *)
  counts : int array; (* per-category emission counts (never dropped) *)
  mutable now : unit -> float; (* simulated-time source for clockless emitters *)
  mutable next_span : int; (* next span id; ids are per-recorder, starting at 1 *)
  mutable open_spans : open_span list; (* innermost first *)
}

let default_capacity = 1 lsl 16

let make ?(capacity = default_capacity) ?(now = fun () -> 0.0) () =
  if capacity <= 0 then invalid_arg "Trace.Recorder.create: capacity must be positive";
  {
    buf = Array.make capacity None;
    capacity;
    total = 0;
    carried_drops = 0;
    counts = Array.make Event.num_categories 0;
    now;
    next_span = 1;
    open_spans = [];
  }

let set_time_source_r t f = t.now <- f
let now_r t = t.now ()

let current_parent t = match t.open_spans with [] -> 0 | f :: _ -> f.id

let fresh_span t =
  let id = t.next_span in
  t.next_span <- id + 1;
  id

let emit_r t ?ts ?span ?parent ~cat ~subsystem ?(phase = Event.Instant) ?(args = []) name =
  let ts_ns = match ts with Some ts -> ts | None -> t.now () in
  let parent = match parent with Some p -> p | None -> current_parent t in
  let span = match span with Some s -> s | None -> 0 in
  let e = { Event.ts_ns; cat; subsystem; name; phase; span; parent; args } in
  t.buf.(t.total mod t.capacity) <- Some e;
  t.total <- t.total + 1;
  let i = Event.category_index cat in
  t.counts.(i) <- t.counts.(i) + 1

(** After-the-fact span: gets a fresh id and the currently open frame
    as parent — correct whenever it is emitted at the simulated moment
    the work ends (the instrumented stack's convention). *)
let span_r t ?(args = []) ~cat ~subsystem ~start_ns ~end_ns name =
  let id = fresh_span t in
  emit_r t ~ts:start_ns ~span:id ~cat ~subsystem
    ~phase:(Event.Complete (end_ns -. start_ns))
    ~args name

let enter_span_r t ?ts ~cat ~subsystem name =
  let o_start = match ts with Some ts -> ts | None -> t.now () in
  let id = fresh_span t in
  t.open_spans <-
    { id; o_parent = current_parent t; o_cat = cat; o_subsystem = subsystem; o_name = name; o_start }
    :: t.open_spans

(** Pop the innermost open span and emit its [Complete] event.  A
    no-op on an empty stack, so a recorder installed mid-span cannot
    crash the exit side of the pair. *)
let exit_span_r t ?ts ?(args = []) () =
  match t.open_spans with
  | [] -> ()
  | f :: rest ->
      t.open_spans <- rest;
      let end_ns = match ts with Some ts -> ts | None -> t.now () in
      emit_r t ~ts:f.o_start ~span:f.id ~parent:f.o_parent ~cat:f.o_cat ~subsystem:f.o_subsystem
        ~phase:(Event.Complete (end_ns -. f.o_start))
        ~args f.o_name

let open_depth_r t = List.length t.open_spans

type stats = { emitted : int; dropped : int; capacity : int }

let stats_r t =
  {
    emitted = t.total + t.carried_drops;
    dropped = t.carried_drops + max 0 (t.total - t.capacity);
    capacity = t.capacity;
  }

let events_r t =
  let n = min t.total t.capacity in
  let first = if t.total <= t.capacity then 0 else t.total mod t.capacity in
  List.init n (fun i ->
      match t.buf.((first + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let category_counts_r t =
  List.filter_map
    (fun c ->
      let n = t.counts.(Event.category_index c) in
      if n = 0 then None else Some (c, n))
    Event.categories

let clear_r t =
  Array.fill t.buf 0 t.capacity None;
  t.total <- 0;
  t.carried_drops <- 0;
  Array.fill t.counts 0 Event.num_categories 0;
  t.next_span <- 1;
  t.open_spans <- []

(** Deterministic fan-in for per-shard recorders.  The result is a
    fresh recorder sized to hold every retained event of both inputs:

    - [b]'s span/parent ids are offset past [a]'s id space, so trees
      from different shards never collide;
    - retained events are interleaved by a {e stable} sort on
      simulated timestamp (ties keep [a] before [b]);
    - per-category counts add, and drops carry over, so
      [stats (merge a b)] reports the sum of both inputs' emissions.

    Inputs are left untouched.  Open (unexited) spans do not travel —
    merge after the shards have quiesced. *)
let merge_r a b =
  let sa = stats_r a and sb = stats_r b in
  let offset = a.next_span - 1 in
  let shift id = if id = 0 then 0 else id + offset in
  let eb =
    List.map
      (fun (e : Event.t) -> { e with Event.span = shift e.Event.span; parent = shift e.Event.parent })
      (events_r b)
  in
  let all =
    List.stable_sort
      (fun (x : Event.t) (y : Event.t) -> Float.compare x.Event.ts_ns y.Event.ts_ns)
      (events_r a @ eb)
  in
  let t = make ~capacity:(max 1 (List.length all)) ~now:a.now () in
  List.iter
    (fun (e : Event.t) ->
      emit_r t ~ts:e.Event.ts_ns ~span:e.Event.span ~parent:e.Event.parent ~cat:e.Event.cat
        ~subsystem:e.Event.subsystem ~phase:e.Event.phase ~args:e.Event.args e.Event.name)
    all;
  Array.iteri (fun i _ -> t.counts.(i) <- a.counts.(i) + b.counts.(i)) t.counts;
  t.carried_drops <- sa.dropped + sb.dropped;
  t.next_span <- a.next_span + b.next_span - 1;
  t

module Recorder = struct
  type nonrec t = t

  let create = make
  let set_time_source = set_time_source_r
  let now = now_r
  let emit = emit_r
  let span = span_r
  let enter_span = enter_span_r
  let exit_span = exit_span_r
  let open_depth = open_depth_r
  let merge = merge_r
  let stats = stats_r
  let events = events_r
  let category_counts = category_counts_r
  let clear = clear_r
end

(* ----------------------- the ambient recorder --------------------- *)

(* The ambient slot is domain-local ([Domain.DLS]), not a process
   global: each domain owns its own installed recorder, so a tenant
   shard running on a pool worker installs a per-shard recorder
   without racing the main domain's (or any sibling shard's).  A
   freshly spawned domain starts with no recorder — tracing inside a
   shard is an explicit install, never inherited.  This retired the
   R1 lint.allow entry the old [ref] needed. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let installed () = Domain.DLS.get current_key

let install r = Domain.DLS.set current_key (Some r)
let uninstall () = Domain.DLS.set current_key None

let on () = installed () <> None

let set_time_source f = match installed () with Some t -> set_time_source_r t f | None -> ()

let now () = match installed () with Some t -> now_r t | None -> 0.0

let emit ?ts ~cat ~subsystem ?phase ?args name =
  match installed () with
  | None -> ()
  | Some t -> emit_r t ?ts ~cat ~subsystem ?phase ?args name

(** Emit a span given its boundaries (simulated ns). *)
let span ?args ~cat ~subsystem ~start_ns ~end_ns name =
  match installed () with
  | None -> ()
  | Some t -> span_r t ?args ~cat ~subsystem ~start_ns ~end_ns name

let enter_span ?ts ~cat ~subsystem name =
  match installed () with None -> () | Some t -> enter_span_r t ?ts ~cat ~subsystem name

let exit_span ?ts ?args () =
  match installed () with None -> () | Some t -> exit_span_r t ?ts ?args ()
