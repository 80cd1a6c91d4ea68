(** Page cache over a block target, with LRU replacement and a
    direct-I/O bypass.

    The paper's filebench runs show the cache "masking" dm-crypt's
    cost: once the fileset is warm, reads never reach the crypto
    layer.  The direct-I/O variants bypass this module entirely and
    expose the raw encryption overhead (Fig 9). *)

open Sentry_soc

type entry = {
  index : int; (* page index within the device *)
  data : Bytes.t;
  mutable dirty : bool;
  mutable prev : entry option;
  mutable next : entry option;
}

type t = {
  machine : Machine.t;
  lower : Blockio.t;
  capacity : int; (* pages *)
  table : (int, entry) Hashtbl.t;
  mutable head : entry option; (* most recently used *)
  mutable tail : entry option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
}

let create machine ~capacity_pages lower =
  {
    machine;
    lower;
    capacity = capacity_pages;
    table = Hashtbl.create (capacity_pages * 2);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
  }

(* ------------------------- LRU list ops -------------------------- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  unlink t e;
  push_front t e

let flush_entry t e =
  if e.dirty then begin
    Blockio.write t.lower ~off:(e.index * Page.size) e.data;
    e.dirty <- false
  end

let trace t name index =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit
      ~ts:(Clock.now (Machine.clock t.machine))
      ~cat:Sentry_obs.Event.Mem ~subsystem:"kernel.bcache" name
      ~args:[ ("page", Sentry_obs.Event.Int index) ]

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
      trace t "evict" e.index;
      flush_entry t e;
      unlink t e;
      Hashtbl.remove t.table e.index

(* Small cost for a cache hit: an in-memory page copy. *)
let charge_hit t =
  Clock.advance (Machine.clock t.machine) (float_of_int (Page.size / 32) *. Calib.l2_hit_line_ns)

let lookup t index =
  match Hashtbl.find_opt t.table index with
  | Some e ->
      t.hits <- t.hits + 1;
      charge_hit t;
      touch t e;
      e
  | None ->
      t.misses <- t.misses + 1;
      trace t "miss" index;
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let data =
        let off = index * Page.size in
        let len = min Page.size (t.lower.Blockio.size - off) in
        let b = Blockio.read t.lower ~off ~len in
        if len = Page.size then b
        else begin
          let page = Bytes.make Page.size '\000' in
          Bytes.blit b 0 page 0 len;
          page
        end
      in
      let e = { index; data; dirty = false; prev = None; next = None } in
      Hashtbl.replace t.table index e;
      push_front t e;
      e

(** Write every dirty page down and drop nothing (like sync(2)). *)
let sync t = Hashtbl.iter (fun _ e -> flush_entry t e) t.table

(** Drop the whole cache (after sync), e.g. between benchmark runs. *)
let drop t =
  sync t;
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let stats t = (t.hits, t.misses)

(** Cached target view. *)
let target t =
  let size = t.lower.Blockio.size in
  let read ~off ~len =
    let out = Bytes.create len in
    let first = off / Page.size and last = (off + len - 1) / Page.size in
    for index = first to last do
      let e = lookup t index in
      let page_start = index * Page.size in
      let copy_from = max off page_start in
      let copy_to = min (off + len) (page_start + Page.size) in
      Bytes.blit e.data (copy_from - page_start) out (copy_from - off) (copy_to - copy_from)
    done;
    out
  in
  let write ~off b =
    let len = Bytes.length b in
    let first = off / Page.size and last = (off + len - 1) / Page.size in
    for index = first to last do
      let e = lookup t index in
      let page_start = index * Page.size in
      let copy_from = max off page_start in
      let copy_to = min (off + len) (page_start + Page.size) in
      Bytes.blit b (copy_from - off) e.data (copy_from - page_start) (copy_to - copy_from);
      e.dirty <- true
    done
  in
  { Blockio.name = "buffer-cache"; size; read; write }
