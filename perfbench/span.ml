(** In-memory spans for the traced benchmark run.

    Spans are recorded by benchmark code around its calls into the
    library's public functions; the library itself is not
    instrumented.  A span's name is ["layer.call"] (["core.lock"],
    ["kernel.touch"], ...): the part before the first dot is the
    layer, named after the library directory the called function
    lives in, or ["bench"] for the benchmark's own glue.

    Recording is domain-safe: ids come from an atomic counter and
    finished spans are pushed under a mutex, so shards running on pool
    workers record into the same recorder as the main domain.  Each
    span also carries the [Gc.minor_words] delta of the domain that
    ran it (OCaml 5 counts minor words per domain). *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  domain : int;
  t0 : int;  (** monotonic ns *)
  t1 : int;
  words : float;  (** minor words allocated by the recording domain *)
  items : int;  (** work items the call handled (pages, requests, ops) *)
}

type recorder = { ids : int Atomic.t; lock : Mutex.t; mutable spans : span list }

(** Where new spans go: nowhere, or into a recorder under a parent. *)
type ctx = Off | On of { r : recorder; parent : int }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { ids = Atomic.make 1; lock = Mutex.create (); spans = [] }
let root r = On { r; parent = 0 }

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(** [run ctx name f] runs [f] with a context whose new spans nest
    under this one.  [items] counts the work the call did, from its
    result.  A raising call records no span. *)
let run ?(items = fun _ -> 0) ctx name f =
  match ctx with
  | Off -> f Off
  | On c ->
      let id = Atomic.fetch_and_add c.r.ids 1 in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let result = f (On { c with parent = id }) in
      let t1 = now_ns () in
      let words = Gc.minor_words () -. w0 in
      let s =
        {
          id;
          parent = c.parent;
          name;
          domain = (Domain.self () :> int);
          t0;
          t1;
          words;
          items = items result;
        }
      in
      Mutex.protect c.r.lock (fun () -> c.r.spans <- s :: c.r.spans);
      result

(** Finished spans in start order. *)
let spans r =
  List.sort
    (fun a b -> compare (a.t0, a.id) (b.t0, b.id))
    (Mutex.protect r.lock (fun () -> r.spans))

let dur s = s.t1 - s.t0

(* Length of the union of [intervals] clipped to [lo, hi]: children
   of one span may overlap when they ran on different domains. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  fst
    (List.fold_left
       (fun (total, last_end) (a, b) ->
         if b <= last_end then (total, last_end) else (total + (b - max a last_end), b))
       (0, min_int)
       (List.sort compare clipped))

(** Every span with its self time: its duration minus the part of
    that interval its child spans cover. *)
let with_self spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s -> (s, dur s - covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)))
    spans

(** The spans under (and including) roots that satisfy [keep]. *)
let subtrees ~keep spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let memo = Hashtbl.create 64 in
  let rec kept s =
    match Hashtbl.find_opt memo s.id with
    | Some b -> b
    | None ->
        let b =
          if s.parent = 0 then keep s
          else match Hashtbl.find_opt by_id s.parent with Some p -> kept p | None -> false
        in
        Hashtbl.replace memo s.id b;
        b
  in
  List.filter kept spans

(** Share of all recorded self time spent in spans of a layer other
    than ["bench"]: the part of the run that a library call accounts
    for.  A low value means time went to code no span covers. *)
let covered_frac spans =
  let self = with_self spans in
  let total = List.fold_left (fun a (_, t) -> a + t) 0 self in
  let lib =
    List.fold_left (fun a (s, t) -> if layer s.name = "bench" then a else a + t) 0 self
  in
  if total = 0 then 0.0 else float_of_int lib /. float_of_int total

(* ------------------------------ export ----------------------------- *)

let chrome_json spans =
  let open Sentry_obs.Json_out in
  let base = List.fold_left (fun a s -> min a s.t0) max_int spans in
  let us ns = Float (float_of_int ns /. 1e3) in
  to_string
    (Obj
       [
         ( "traceEvents",
           List
             (List.map
                (fun s ->
                  Obj
                    [
                      ("name", Str s.name);
                      ("cat", Str (layer s.name));
                      ("ph", Str "X");
                      ("ts", us (s.t0 - base));
                      ("dur", us (dur s));
                      ("pid", Int 1);
                      ("tid", Int s.domain);
                      ( "args",
                        Obj
                          [
                            ("id", Int s.id);
                            ("parent", Int s.parent);
                            ("minor_words", Float s.words);
                            ("items", Int s.items);
                          ] );
                    ])
                spans) );
       ])

(** Folded stacks (root first, self ns per unique stack, sorted). *)
let folded spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec path s =
    match Hashtbl.find_opt by_id s.parent with Some p -> path p ^ ";" ^ s.name | None -> s.name
  in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let k = path s in
      Hashtbl.replace acc k (self + Option.value (Hashtbl.find_opt acc k) ~default:0))
    (with_self spans);
  Hashtbl.fold (fun k v l -> Printf.sprintf "%s %d" k v :: l) acc []
  |> List.sort compare |> String.concat "\n"

(** One row per span name: count, total and self ms, minor words,
    items — heaviest self time first. *)
let summary spans =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, slf, w, it =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0, 0, 0.0, 0)
      in
      Hashtbl.replace acc s.name (n + 1, tot + dur s, slf + self, w +. s.words, it + s.items))
    (with_self spans);
  let rows = Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] in
  let rows = List.sort (fun (_, (_, _, a, _, _)) (_, (_, _, b, _, _)) -> compare b a) rows in
  String.concat "\n"
    (Printf.sprintf "%-26s %8s %12s %12s %14s %10s" "span" "count" "total_ms" "self_ms"
       "minor_words" "items"
    :: List.map
         (fun (k, (n, tot, slf, w, it)) ->
           Printf.sprintf "%-26s %8d %12.3f %12.3f %14.0f %10d" k n (float_of_int tot /. 1e6)
             (float_of_int slf /. 1e6) w it)
         rows)

let write_all ~dir spans =
  let write name text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc text;
        output_char oc '\n')
  in
  write "trace.json" (chrome_json spans);
  write "stacks.folded" (folded spans);
  write "layers.txt" (summary spans)
