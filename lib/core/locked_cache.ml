(** Way-locked L2 cache storage (§4.2, §4.5).

    Sentry reserves a DRAM {e arena} — one contiguous, way-sized,
    way-aligned region per lockable way — and pins each region's lines
    into one cache way with the paper's four-step protocol:

    {v
    1. flush entire cache            (masked: already-locked ways stay)
    2. enable 1 way                  (lockdown = all ways but w)
    3. write 0xFF over the region    (warm every set of way w)
    4. enable remaining ways         (lockdown = locked set; w "disabled")
    v}

    From then on, CPU accesses to the region hit way [w] and never
    reach DRAM; the DRAM cells behind the region keep whatever stale
    bytes they had.  Unlocking erases with 0xFF and re-enables the
    way.  The flush mask is maintained so the Sentry-patched kernel's
    cache maintenance never cleans a locked way (§4.5).

    Lockdown registers are secure-world-only (§10), so every step runs
    inside [Trustzone.with_secure_world].

    Pages are handed out from locked regions on demand; when a way
    fills up and the budget allows, the next way is locked (§4.5:
    "once the entire way has been allocated, we lock an additional
    way"). *)

open Sentry_soc

type t = {
  machine : Machine.t;
  arena_base : int; (* way-size aligned, in DRAM *)
  max_ways : int;
  mutable locked : int list; (* way indices, in locking order *)
  mutable free_pages : int list;
  mutable used_pages : (int, unit) Hashtbl.t;
}

let way_size t = Pl310.way_size (Machine.l2 t.machine)

let arena_bytes ~machine ~max_ways = max_ways * Pl310.way_size (Machine.l2 machine)

let create machine ~arena_base ~max_ways =
  let l2 = Machine.l2 machine in
  if not (Machine.config machine).Machine.cache_locking_available then
    invalid_arg "Locked_cache: cache locking unavailable on this platform";
  if arena_base mod Pl310.way_size l2 <> 0 then
    invalid_arg "Locked_cache: arena must be way-size aligned";
  if max_ways >= Pl310.ways l2 then
    invalid_arg "Locked_cache: must leave at least one way unlocked";
  {
    machine;
    arena_base;
    max_ways;
    locked = [];
    free_pages = [];
    used_pages = Hashtbl.create 64;
  }

let locked_ways t = List.length t.locked

(** Arena region pinned by locked way number [i] (0-based in locking
    order). *)
let region_of_way_index t i =
  Memmap.region ~base:(t.arena_base + (i * way_size t)) ~size:(way_size t)

(** Does [addr] fall in a currently locked region? *)
let contains t addr =
  List.exists
    (fun i -> Memmap.contains (region_of_way_index t i) addr)
    (List.init (locked_ways t) Fun.id)

let all_ways_mask l2 = (1 lsl Pl310.ways l2) - 1

(** The four-step pinning protocol for one way.  Must run inside the
    secure world; appends [way] to [t.locked]. *)
let pin_way t ~index ~way =
  let l2 = Machine.l2 t.machine in
  let region = region_of_way_index t index in
  (* 1. flush entire cache (already-locked ways are excluded by the
     flush mask, which equals the current lockdown set) *)
  Pl310.flush_masked l2;
  (* 2. enable only [way]: every other way locked for allocation *)
  Pl310.set_lockdown l2 (all_ways_mask l2 lxor (1 lsl way));
  (* 3. warm the way: write 0xFF over the whole region through the
     cache; every line of every set allocates into [way] *)
  let stride = 4 * Sentry_util.Units.kib in
  let ff = Bytes.make stride '\xff' in
  let off = ref 0 in
  while !off < region.Memmap.size do
    Machine.write t.machine (region.Memmap.base + !off) ff;
    off := !off + stride
  done;
  (* 4. lock [way], re-enable the rest *)
  let locked_mask = List.fold_left (fun m w -> m lor (1 lsl w)) (1 lsl way) t.locked in
  Pl310.set_lockdown l2 locked_mask;
  Pl310.set_flush_mask l2 locked_mask;
  t.locked <- t.locked @ [ way ]

(** Lock the next way and add its pages to the free pool. *)
let lock_next_way t =
  let index = locked_ways t in
  if index >= t.max_ways then failwith "Locked_cache: way budget exhausted";
  (* Pick the lowest way number not yet locked. *)
  let way =
    let rec first w = if List.mem w t.locked then first (w + 1) else w in
    first 0
  in
  let region = region_of_way_index t index in
  Trustzone.with_secure_world (Machine.trustzone t.machine) (fun () ->
      Trustzone.check_coprocessor_access (Machine.trustzone t.machine);
      pin_way t ~index ~way);
  (* hand out the region's pages *)
  let pages = region.Memmap.size / 4096 in
  for i = pages - 1 downto 0 do
    t.free_pages <- (region.Memmap.base + (i * 4096)) :: t.free_pages
  done

(** Re-pin every locked way after a controller reset wiped the
    lockdown registers (crash recovery: [Pl310.reset] drops lockdown
    and invalidates, so every "locked" line is gone).  Replays the
    four-step protocol per way in the original locking order; page
    bookkeeping is untouched, but all cell contents are 0xFF afterwards
    — callers must rewrite whatever the pages held. *)
let relock t =
  let l2 = Machine.l2 t.machine in
  let ways = t.locked in
  t.locked <- [];
  Trustzone.with_secure_world (Machine.trustzone t.machine) (fun () ->
      Trustzone.check_coprocessor_access (Machine.trustzone t.machine);
      Pl310.set_lockdown l2 0;
      Pl310.set_flush_mask l2 0;
      List.iteri (fun index way -> pin_way t ~index ~way) ways)

(** Unlock every locked way, erasing contents first (§4.5's two-step
    unlock). *)
let unlock_all t =
  let l2 = Machine.l2 t.machine in
  if t.locked <> [] then
    Trustzone.with_secure_world (Machine.trustzone t.machine) (fun () ->
        Trustzone.check_coprocessor_access (Machine.trustzone t.machine);
        (* 1. erase sensitive data: 0xFF over every locked region *)
        for i = 0 to locked_ways t - 1 do
          let region = region_of_way_index t i in
          let ff = Bytes.make 4096 '\xff' in
          let off = ref 0 in
          while !off < region.Memmap.size do
            Machine.write t.machine (region.Memmap.base + !off) ff;
            off := !off + 4096
          done
        done;
        (* 2. restore unlocked cache ways *)
        Pl310.set_lockdown l2 0;
        Pl310.set_flush_mask l2 0);
  t.locked <- [];
  t.free_pages <- [];
  Hashtbl.reset t.used_pages

exception Exhausted

(** [alloc_page t] — a 4 KB on-SoC page; locks an additional way when
    the pool runs dry and the budget allows.
    @raise Exhausted past the way budget. *)
let alloc_page t =
  (match t.free_pages with
  | [] -> if locked_ways t < t.max_ways then lock_next_way t else raise Exhausted
  | _ -> ());
  match t.free_pages with
  | [] -> raise Exhausted
  | p :: rest ->
      t.free_pages <- rest;
      Hashtbl.replace t.used_pages p ();
      p

let free_page t page =
  if not (Hashtbl.mem t.used_pages page) then
    invalid_arg "Locked_cache.free_page: not allocated";
  (* scrub before returning to the pool *)
  Machine.write t.machine page (Bytes.make 4096 '\xff');
  Hashtbl.remove t.used_pages page;
  t.free_pages <- page :: t.free_pages

let free_pages t = List.length t.free_pages
let used_pages t = Hashtbl.length t.used_pages
