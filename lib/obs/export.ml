(** Exporters: Chrome [trace_event] JSON (Perfetto /
    [chrome://tracing]), a JSONL event dump, folded stacks for
    flamegraph tooling, a self/total-time span profile, and the flat
    metrics report behind [BENCH_sentry.json]. *)

let arg_json = function
  | Event.Int i -> Json_out.Int i
  | Event.Float f -> Json_out.Float f
  | Event.Str s -> Json_out.Str s
  | Event.Bool b -> Json_out.Bool b

let args_json args = Json_out.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)

(* ----------------------- Chrome trace_event ---------------------- *)

(* trace_event timestamps are microseconds. *)
let us ns = ns /. 1000.0

(** One lane (Chrome "thread") per subsystem, in order of first
    appearance; lane names are announced with [thread_name] metadata
    events as the format prescribes. *)
let chrome_trace ?(process_name = "sentry-sim") events =
  let tids = Hashtbl.create 16 in
  let order = ref [] in
  let tid_of subsystem =
    match Hashtbl.find_opt tids subsystem with
    | Some tid -> tid
    | None ->
        let tid = Hashtbl.length tids + 1 in
        Hashtbl.add tids subsystem tid;
        order := (subsystem, tid) :: !order;
        tid
  in
  let event_json (e : Event.t) =
    let common =
      [
        ("name", Json_out.Str e.Event.name);
        ("cat", Json_out.Str (Event.category_name e.Event.cat));
        ("pid", Json_out.Int 1);
        ("tid", Json_out.Int (tid_of e.Event.subsystem));
        ("ts", Json_out.Float (us e.Event.ts_ns));
        ("args", args_json e.Event.args);
      ]
    in
    match e.Event.phase with
    | Event.Instant -> Json_out.Obj (("ph", Json_out.Str "i") :: ("s", Json_out.Str "t") :: common)
    | Event.Complete dur ->
        Json_out.Obj (("ph", Json_out.Str "X") :: ("dur", Json_out.Float (us dur)) :: common)
    | Event.Counter -> Json_out.Obj (("ph", Json_out.Str "C") :: common)
  in
  let body = List.map event_json events in
  let meta =
    Json_out.Obj
      [
        ("name", Json_out.Str "process_name");
        ("ph", Json_out.Str "M");
        ("pid", Json_out.Int 1);
        ("args", Json_out.Obj [ ("name", Json_out.Str process_name) ]);
      ]
    :: List.rev_map
         (fun (subsystem, tid) ->
           Json_out.Obj
             [
               ("name", Json_out.Str "thread_name");
               ("ph", Json_out.Str "M");
               ("pid", Json_out.Int 1);
               ("tid", Json_out.Int tid);
               ("args", Json_out.Obj [ ("name", Json_out.Str subsystem) ]);
             ])
         !order
  in
  Json_out.Obj
    [
      ("traceEvents", Json_out.List (meta @ body));
      ("displayTimeUnit", Json_out.Str "ns");
    ]

let chrome_trace_string ?process_name events =
  Json_out.to_string (chrome_trace ?process_name events)

(* ----------------------------- JSONL ----------------------------- *)

let event_json (e : Event.t) =
  let phase_fields =
    match e.Event.phase with
    | Event.Instant -> [ ("phase", Json_out.Str "instant") ]
    | Event.Complete dur ->
        [ ("phase", Json_out.Str "complete"); ("dur_ns", Json_out.Float dur) ]
    | Event.Counter -> [ ("phase", Json_out.Str "counter") ]
  in
  let causal =
    (if e.Event.span = 0 then [] else [ ("span", Json_out.Int e.Event.span) ])
    @ if e.Event.parent = 0 then [] else [ ("parent", Json_out.Int e.Event.parent) ]
  in
  Json_out.Obj
    ([
       ("ts_ns", Json_out.Float e.Event.ts_ns);
       ("cat", Json_out.Str (Event.category_name e.Event.cat));
       ("subsystem", Json_out.Str e.Event.subsystem);
       ("name", Json_out.Str e.Event.name);
     ]
    @ phase_fields @ causal
    @ [ ("args", args_json e.Event.args) ])

(** One JSON object per line. *)
let jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json_out.add buf (event_json e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* ------------------------ causal span views ---------------------- *)

let frame (e : Event.t) = e.Event.subsystem ^ ":" ^ e.Event.name

(* Spans that carry a causal id, indexed by it, plus per-parent child
   time — the two maps both folded stacks and the profile need. *)
let span_index events =
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.phase with
      | Event.Complete _ when e.Event.span <> 0 -> Hashtbl.replace by_id e.Event.span e
      | Event.Complete _ | Event.Instant | Event.Counter -> ())
    events;
  let child_ns = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ (e : Event.t) ->
      match e.Event.phase with
      | Event.Complete dur when e.Event.parent <> 0 && Hashtbl.mem by_id e.Event.parent ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_ns e.Event.parent) in
          Hashtbl.replace child_ns e.Event.parent (prev +. dur)
      | Event.Complete _ | Event.Instant | Event.Counter -> ())
    by_id;
  (by_id, child_ns)

let self_ns child_ns (e : Event.t) dur =
  Float.max 0.0 (dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns e.Event.span))

(* Root-first frame path of a span, following parent ids; depth-capped
   so a malformed parent cycle cannot hang the exporter. *)
let stack_of by_id (e : Event.t) =
  let rec up (e : Event.t) acc depth =
    if depth = 0 || e.Event.parent = 0 then acc
    else
      match Hashtbl.find_opt by_id e.Event.parent with
      | None -> acc
      | Some p -> up p (frame p :: acc) (depth - 1)
  in
  up e [ frame e ] 64

(** Folded stacks ("frame;frame;frame self_ns", one line per unique
    stack, sorted) — the input format of flamegraph.pl / speedscope /
    inferno.  Self time excludes tracked children, so the flamegraph
    widths add up. *)
let folded events =
  let by_id, child_ns = span_index events in
  let acc = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (e : Event.t) ->
      match e.Event.phase with
      | Event.Complete dur ->
          let stack = String.concat ";" (stack_of by_id e) in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc stack) in
          Hashtbl.replace acc stack (prev +. self_ns child_ns e dur)
      | Event.Instant | Event.Counter -> ())
    by_id;
  let rows = Hashtbl.fold (fun stack v l -> (stack, v) :: l) acc [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let buf = Buffer.create 1024 in
  List.iter (fun (stack, v) -> Buffer.add_string buf (Printf.sprintf "%s %.0f\n" stack v)) rows;
  Buffer.contents buf

type span_row = { sr_frame : string; sr_count : int; sr_total_ns : float; sr_self_ns : float }

(** Per-frame profile over tracked spans, heaviest self time first
    (ties broken by frame name). *)
let top_spans ?(limit = 20) events =
  let by_id, child_ns = span_index events in
  let acc = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (e : Event.t) ->
      match e.Event.phase with
      | Event.Complete dur ->
          let f = frame e in
          let c, tot, self = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc f) in
          Hashtbl.replace acc f (c + 1, tot +. dur, self +. self_ns child_ns e dur)
      | Event.Instant | Event.Counter -> ())
    by_id;
  let rows =
    Hashtbl.fold
      (fun f (c, tot, self) l ->
        { sr_frame = f; sr_count = c; sr_total_ns = tot; sr_self_ns = self } :: l)
      acc []
  in
  let rows =
    List.sort
      (fun a b ->
        match Float.compare b.sr_self_ns a.sr_self_ns with
        | 0 -> String.compare a.sr_frame b.sr_frame
        | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < limit) rows

let top_spans_table rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-42s %8s %14s %14s\n" "span" "count" "total_ns" "self_ns");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-42s %8d %14.0f %14.0f\n" r.sr_frame r.sr_count r.sr_total_ns
           r.sr_self_ns))
    rows;
  Buffer.contents buf

(* ------------------------- metrics report ------------------------ *)

(** Flat metrics as one [{"key": k, "value": v}] object per line —
    the shape the bench trajectory tooling ingests. *)
let metrics_jsonl pairs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      Json_out.add buf (Json_out.Obj [ ("key", Json_out.Str k); ("value", Json_out.Float v) ]);
      Buffer.add_char buf '\n')
    pairs;
  Buffer.contents buf

(* ------------------------------ files ---------------------------- *)

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
