(** PL310-style shared L2 cache controller with lockdown-by-way.

    Geometry mirrors the Tegra 3: 1 MB, 8 ways of 128 KB, 32-byte
    lines, write-back + write-allocate.  The controller supports:

    - {b Lockdown by way} (the "data lockdown" register): a bitmask of
      ways that receive no new allocations.  Lines already resident in
      a locked way keep serving hits and absorbing writes, but are
      never evicted — so their data never reaches DRAM.  This is the
      mechanism Sentry repurposes for security (§4.2).
    - {b Clean/invalidate with a way mask}: Sentry's kernel patch
      (§4.5) routes every L2 flush through a mask that skips locked
      ways.  The stock full flush, by contrast, cleans {e all} ways —
      including locked ones — and drops the lockdown, which is exactly
      the dangerous behaviour the paper discovered and disabled.

    If an access misses and every way is either locked or disabled,
    the access bypasses the cache entirely (uncached DRAM access), as
    the PL310 does when allocation is impossible.

    Storage is struct-of-arrays.  Line [(w, set)] lives in slot
    [w * sets + set]: its bytes are [data] at [slot * line_size], its
    taint labels sit at the same offset of [shadow], and its state is
    one tag word, [tags.(slot) = (tag lsl 2) lor (dirty lsl 1) lor
    valid].  A line's bytes are defined once it has been filled; no
    path reads an invalid line's bytes, so [data] is allocated
    uninitialised.  One occupancy word per way, [occ.(w)], has bit [b]
    set when block [b] of the way's sets may hold a valid line, so
    maintenance visits occupied blocks only. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable bypasses : int;
}

type t = {
  dram : Dram.t;
  dbase : int; (* DRAM region base: store offset = address - dbase *)
  bus : Bus.t; (* the bus [dram] answers on *)
  bus_counts : Bus.counters; (* [bus]'s counters and meter, charged in place *)
  bus_meter : Energy.meter;
  clock : Clock.t;
  ways : int;
  way_size : int;
  line_size : int;
  sets : int;
  set_shift : int; (* log2 line_size *)
  tag_shift : int; (* set_shift + log2 sets: address bits above the set index *)
  fill_ns : float; (* per-line fill latency: hit plus DRAM line *)
  meter : Energy.meter; (* pre-resolved "l2" energy cell *)
  data : Bytes.t; (* ways * way_size line bytes, slot-major *)
  tags : int array; (* one tag word per slot *)
  occ : int array; (* per way: bit b set when set block b may hold a valid line *)
  block_shift : int; (* log2 sets per occupancy block: 32 blocks per way, at least 1 set each *)
  mutable shadow : Bytes.t option; (* per-byte line taint, [data]'s layout *)
  mutable lockdown : int; (* bit w set: way w receives no allocations *)
  mutable flush_mask : int; (* bit w set: maintenance ops skip way w *)
  rr : int array; (* per-set round-robin victim pointer *)
  last_way : int array; (* per-set last-hit-way memo (lookup hint only) *)
  stats : stats;
  mutable on_writeback : (way:int -> addr:int -> locked:bool -> unit) option;
}

(* Tag-word bits below the tag. *)
let valid_bit = 1
let dirty_bit = 2

(* In-place charges for the per-line paths.  The clock and the meters'
   cells are flat float records, so a charge is a load, an add and a
   store: no call, no boxed argument.  [charge] adds to the shared
   total first, then to the category's cell, as [Energy.charge] does,
   and [bus_account] is [Bus.record_view]'s accounting without its
   trace event and monitor delivery (callers have checked that nothing
   observes the bus). *)
let[@inline] advance (clock : Clock.t) dt = clock.now_ns <- clock.now_ns +. dt

let[@inline] charge (m : Energy.meter) j =
  m.totals.j <- m.totals.j +. j;
  m.own.j <- m.own.j +. j

let[@inline] bus_account (c : Bus.counters) m ~write len =
  c.transactions <- c.transactions + 1;
  if write then c.bytes_written <- c.bytes_written + len else c.bytes_read <- c.bytes_read + len;
  charge m (float_of_int len *. Calib.dram_byte_j)

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Trace emission; every call site is guarded by [Trace.on] so the
   disabled path costs one domain-local read and allocates nothing. *)
let obs = "soc.l2"

let trace t ?ts ?phase ?args name =
  let ts = match ts with Some ts -> ts | None -> Clock.now t.clock in
  Sentry_obs.Trace.emit ~ts ~cat:Sentry_obs.Event.Cache ~subsystem:obs ?phase ?args name

let create ?(ways = 8) ?(way_size = 128 * Sentry_util.Units.kib) ?(line_size = 32) ~dram
    ~clock ~energy () =
  let sets = way_size / line_size in
  {
    dram;
    dbase = (Dram.region dram).Memmap.base;
    bus = Dram.bus dram;
    bus_counts = Bus.counters (Dram.bus dram);
    bus_meter = Bus.meter (Dram.bus dram);
    clock;
    ways;
    way_size;
    line_size;
    sets;
    set_shift = log2 line_size;
    tag_shift = log2 line_size + log2 sets;
    fill_ns = Calib.l2_hit_line_ns +. Calib.dram_line_ns;
    meter = Energy.meter energy ~category:"l2";
    data = Bytes.create (ways * way_size);
    tags = Array.make (ways * sets) 0;
    occ = Array.make ways 0;
    block_shift = max 0 (log2 sets - 5);
    shadow = None;
    lockdown = 0;
    flush_mask = 0;
    rr = Array.make sets 0;
    last_way = Array.make sets 0;
    stats = { hits = 0; misses = 0; writebacks = 0; bypasses = 0 };
    on_writeback = None;
  }

(* Offset of line [(w, set)] in [data] and [shadow]. *)
let line_off t w set = ((w * t.sets) + set) lsl t.set_shift

(* Base address of the line a tag word names in [set]. *)
let line_addr t set word = ((word lsr 2) lsl t.tag_shift) lor (set lsl t.set_shift)

(* ------------------------- taint shadow -------------------------- *)

let enable_taint t =
  Dram.enable_taint t.dram;
  if t.shadow = None then t.shadow <- Some (Taint.create_shadow (Bytes.length t.data))

let taint_enabled t = t.shadow <> None

(** [set_writeback_hook t f] — [f] fires whenever a dirty line is
    written back to DRAM, with [locked] true when the line's way is
    currently under lockdown (the eviction the Sentry kernel patch
    must never let happen, §4.5). *)
let set_writeback_hook t f = t.on_writeback <- Some f

let clear_writeback_hook t = t.on_writeback <- None

let ways t = t.ways
let way_size t = t.way_size
let line_size t = t.line_size
let size t = t.ways * t.way_size
let stats t = t.stats

let set_of_addr t addr = (addr lsr t.set_shift) land (t.sets - 1)
let tag_of_addr t addr = addr lsr t.tag_shift

(* ---------------- lockdown & flush-mask registers ---------------- *)

let lockdown t = t.lockdown

(** [set_lockdown t mask] programs the lockdown-by-way register.  A set
    bit means the corresponding way allocates no new lines. *)
let set_lockdown t mask =
  Clock.advance t.clock Calib.pl310_op_ns;
  let masked = mask land ((1 lsl t.ways) - 1) in
  if Sentry_obs.Trace.on () && masked <> t.lockdown then
    trace t "way-lockdown"
      ~args:[ ("old_mask", Sentry_obs.Event.Int t.lockdown); ("new_mask", Sentry_obs.Event.Int masked) ];
  t.lockdown <- masked

let flush_mask t = t.flush_mask

(** [set_flush_mask t mask] records which ways the Sentry-patched
    kernel must skip during cache maintenance. *)
let set_flush_mask t mask = t.flush_mask <- mask land ((1 lsl t.ways) - 1)

(* --------------------------- lookup ------------------------------ *)

(* The way currently holding [addr]'s line, or -1.  A line holds [addr]
   when its tag word, dirty bit masked off, equals the clean valid word
   for [addr]'s tag.  A per-set last-hit-way memo short-circuits the
   8-way scan — a page-granule access walks the same sets line after
   line, so the memoed way hits almost always.  The memo is only a
   hint; the tag word still decides, so a stale entry costs one extra
   probe, never a wrong answer, and the simulated hit charge is the
   same whichever way the line is found in. *)
let lookup_way t addr =
  let set = set_of_addr t addr and sets = t.sets and tags = t.tags in
  let key = (tag_of_addr t addr lsl 2) lor valid_bit in
  let m = t.last_way.(set) in
  if tags.((m * sets) + set) land lnot dirty_bit = key then m
  else begin
    let w = ref 0 in
    while !w < t.ways && tags.((!w * sets) + set) land lnot dirty_bit <> key do
      incr w
    done;
    if !w < t.ways then begin
      t.last_way.(set) <- !w;
      !w
    end
    else -1
  end

(** [lookup t addr] finds the way currently holding [addr]'s line. *)
let lookup t addr =
  let w = lookup_way t addr in
  if w < 0 then None else Some w

let resident t addr = lookup_way t addr >= 0

(* The observed write-back and fill: the same per-line state machine
   as the run loop's inline miss path, but through the [Dram] call
   envelope (bus transaction with taint and monitor snapshot) and with
   trace events and the write-back hook. *)
let write_back t w set =
  let slot = (w * t.sets) + set in
  let word = t.tags.(slot) in
  if word land (valid_bit lor dirty_bit) = valid_bit lor dirty_bit then begin
    let addr = line_addr t set word and off = slot lsl t.set_shift in
    (* [t.data] is passed as a view, not copied: [Dram.write_from]
       blits it into the backing store immediately and the bus layer
       snapshots it for any attached monitor, so later mutation of the
       line cannot alias either one (regression-tested). *)
    (match t.shadow with
    | Some s ->
        Dram.write_from t.dram ~initiator:`L2 ~taint:s ~taint_off:off addr t.data ~off
          ~len:t.line_size
    | None -> Dram.write_from t.dram ~initiator:`L2 addr t.data ~off ~len:t.line_size);
    advance t.clock Calib.dram_line_ns;
    t.tags.(slot) <- word land lnot dirty_bit;
    t.stats.writebacks <- t.stats.writebacks + 1;
    let locked = t.lockdown land (1 lsl w) <> 0 in
    if Sentry_obs.Trace.on () then
      trace t "line-writeback"
        ~args:
          [
            ("way", Sentry_obs.Event.Int w);
            ("addr", Sentry_obs.Event.Int addr);
            ("locked", Sentry_obs.Event.Bool locked);
          ];
    match t.on_writeback with
    | Some f -> f ~way:w ~addr ~locked
    | None -> ()
  end

let fill t w set base =
  let off = line_off t w set in
  Dram.read_into t.dram ~initiator:`L2 base t.data ~off ~len:t.line_size;
  (match t.shadow with
  | Some s -> Dram.blit_shadow_into t.dram base t.line_size s off
  | None -> ());
  t.tags.((w * t.sets) + set) <- (tag_of_addr t base lsl 2) lor valid_bit;
  t.occ.(w) <- t.occ.(w) lor (1 lsl (set lsr t.block_shift));
  t.last_way.(set) <- w;
  advance t.clock t.fill_ns;
  if Sentry_obs.Trace.on () then
    trace t "line-fill"
      ~args:[ ("way", Sentry_obs.Event.Int w); ("addr", Sentry_obs.Event.Int base) ]

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Copy [len] bytes between two distinct buffers, views in range (the
   caller's bounds).  A whole 32-byte line moves as four 64-bit loads
   and stores, inline, instead of a [caml_blit_bytes] call: the walk
   copies one line per access, so the call was most of a line's
   cost. *)
let[@inline] copy_line src soff dst doff len =
  if len = 32 then begin
    set64u dst doff (get64u src soff);
    set64u dst (doff + 8) (get64u src (soff + 8));
    set64u dst (doff + 16) (get64u src (soff + 16));
    set64u dst (doff + 24) (get64u src (soff + 24))
  end
  else Bytes.unsafe_blit src soff dst doff len

(* [write_back] without observers, for the walk's miss path and the
   maintenance loops: the line in [slot] (set [set], tag word [word])
   and its labels go straight into the DRAM store [store] and [dshadow]
   (the DRAM shadow), both fetched once per pass by the caller, with
   the same counters, energy and clock charge.  The caller's one
   [Dram.backing] call per pass is the power check; the line needs no
   range check or first-touch zeroing of its own, because tags only
   come from in-range fills, which zeroed the line's chunk.  The caller
   clears the dirty bit. *)
let[@inline] write_back_unobserved t store dshadow slot set word =
  let line_size = t.line_size in
  let doff = (((word lsr 2) lsl t.tag_shift) lor (set lsl t.set_shift)) - t.dbase in
  let loff = slot lsl t.set_shift in
  copy_line t.data loff store doff line_size;
  (match (dshadow, t.shadow) with
  | Some ds, Some s -> copy_line s loff ds doff line_size
  | Some ds, None -> Taint.fill ds doff line_size Taint.Public
  | None, _ -> ());
  bus_account t.bus_counts t.bus_meter ~write:true line_size;
  advance t.clock Calib.dram_line_ns;
  t.stats.writebacks <- t.stats.writebacks + 1

let bypass t ~write ~taint addr buf buf_off len =
  if Sentry_obs.Trace.on () then
    trace t "bypass"
      ~args:[ ("addr", Sentry_obs.Event.Int addr); ("write", Sentry_obs.Event.Bool write) ];
  advance t.clock Calib.dram_line_ns;
  if write then Dram.write_from t.dram ~initiator:`Cpu ~level:taint addr buf ~off:buf_off ~len
  else Dram.read_into t.dram ~initiator:`Cpu addr buf ~off:buf_off ~len

(* ----------------------- CPU access path ------------------------- *)

let check_view name buf ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg (Printf.sprintf "Pl310.%s: bad view off=%d len=%d buf=%d" name off len (Bytes.length buf))

(* The one CPU access path: a line-granule walk of [len] bytes from
   [addr], moving data between [buf] at [buf_off] and the cache.  Per
   line: a hit charges the hit and moves the chunk; a miss picks a
   victim (an invalid line in an unlocked way first, else round-robin
   over unlocked ways, else none), writes the victim back if dirty,
   fills the line and moves the chunk — or, with every way locked,
   goes to DRAM uncached.

   The walk is one top-level function with no closures: its invariants
   (geometry, the arrays, the lockdown mask, the charging handles, the
   DRAM base and bus) are read into locals once per call, and its state
   lives in local refs, which ocamlopt keeps in registers.  Observers
   are one flag, read once per call and tested once per miss: with
   tracing on, a write-back hook set or a bus monitor attached, misses
   go through [write_back]/[fill]/[bypass], which emit the events;
   otherwise the fill and bypass are inlined and the write-back is
   [write_back_unobserved], with bus accounting only (the same counters
   and energy).  Every charge is an in-place add to the clock and the
   meters ([advance], [charge], [bus_account]), in the order the
   observed path makes the same charges through [Clock], [Bus] and
   [Dram], so every float accumulator sees the same adds.  Array and
   bytes accesses are unsafe: set and way indices are masked or
   register-bounded, line offsets bounded by the chunk computation, the
   caller's view by [check_view], and DRAM offsets by [Dram.backing].

   The unobserved miss path validates DRAM once per call, at the first
   miss, over the whole walk ([Dram.backing], which also zeroes its
   chunks on first touch); write-back addresses are in range by
   construction (tags only come from in-range fills) and their chunk is
   already zeroed, so write-backs use the same store.  Power cannot
   change mid-walk, so only error paths can tell this from a per-line
   check: a walk extending past the end of DRAM raises at its first
   miss, not at the offending line. *)
let walk t ~write ~taint buf buf_off addr len =
  let observed =
    Sentry_obs.Trace.on () || t.on_writeback <> None || Bus.monitored t.bus
  in
  let data = t.data and tags = t.tags and shadow = t.shadow in
  let occ = t.occ and block_shift = t.block_shift in
  let rr = t.rr and last_way = t.last_way and stats = t.stats in
  let clock = t.clock and meter = t.meter and dram = t.dram in
  let bus_counts = t.bus_counts and bus_meter = t.bus_meter in
  let line_size = t.line_size and set_shift = t.set_shift and tag_shift = t.tag_shift in
  let sets = t.sets and nways = t.ways and lockdown = t.lockdown in
  let set_mask = t.sets - 1 and line_mask = t.line_size - 1 in
  let fill_ns = t.fill_ns and dbase = t.dbase in
  let any_unlocked = lockdown <> (1 lsl nways) - 1 in
  let hit_j = float_of_int line_size *. Calib.onsoc_byte_j in
  let dshadow = Dram.backing_shadow dram in
  let store = ref Bytes.empty (* [Dram.backing] of the walk, fetched at the first miss *) in
  let pos = ref addr and boff = ref buf_off and rem = ref len in
  while !rem > 0 do
    let a = !pos and bo = !boff in
    let off_in_line = a land line_mask in
    let chunk = let c = line_size - off_in_line in if c < !rem then c else !rem in
    let set = (a lsr set_shift) land set_mask in
    let key = ((a lsr tag_shift) lsl 2) lor valid_bit in
    let m = Array.unsafe_get last_way set in
    let w =
      if Array.unsafe_get tags ((m * sets) + set) land lnot dirty_bit = key then m
      else begin
        let w = ref 0 in
        while !w < nways && Array.unsafe_get tags ((!w * sets) + set) land lnot dirty_bit <> key do
          incr w
        done;
        if !w < nways then begin
          Array.unsafe_set last_way set !w;
          !w
        end
        else -1
      end
    in
    let w =
      if w >= 0 then begin
        stats.hits <- stats.hits + 1;
        advance clock Calib.l2_hit_line_ns;
        charge meter hit_j;
        w
      end
      else begin
        stats.misses <- stats.misses + 1;
        let v = ref 0 in
        while
          !v < nways
          && (lockdown land (1 lsl !v) <> 0
             || Array.unsafe_get tags ((!v * sets) + set) land valid_bit <> 0)
        do
          incr v
        done;
        if !v = nways then
          if not any_unlocked then v := -1
          else begin
            v := Array.unsafe_get rr set;
            while lockdown land (1 lsl !v) <> 0 do
              v := if !v + 1 = nways then 0 else !v + 1
            done;
            Array.unsafe_set rr set (if !v + 1 = nways then 0 else !v + 1)
          end;
        let w = !v in
        if observed then begin
          if w >= 0 then begin
            write_back t w set;
            fill t w set (a land lnot line_mask)
          end
          else begin
            stats.bypasses <- stats.bypasses + 1;
            bypass t ~write ~taint a buf bo chunk
          end
        end
        else begin
          if !store == Bytes.empty then begin
            let run_base = addr land lnot line_mask in
            store := Dram.backing dram run_base (((addr + len - 1) lor line_mask) + 1 - run_base)
          end;
          if w < 0 then begin
            (* allocation impossible: uncached DRAM access *)
            stats.bypasses <- stats.bypasses + 1;
            advance clock Calib.dram_line_ns;
            if write then begin
              Bytes.unsafe_blit buf bo !store (a - dbase) chunk;
              (match dshadow with Some ds -> Taint.fill ds (a - dbase) chunk taint | None -> ());
              bus_account bus_counts bus_meter ~write:true chunk
            end
            else begin
              Bytes.unsafe_blit !store (a - dbase) buf bo chunk;
              bus_account bus_counts bus_meter ~write:false chunk
            end
          end
          else begin
            let slot = (w * sets) + set in
            let loff = slot lsl set_shift in
            let word = Array.unsafe_get tags slot in
            if word land (valid_bit lor dirty_bit) = valid_bit lor dirty_bit then
              write_back_unobserved t !store dshadow slot set word;
            let base = a land lnot line_mask in
            copy_line !store (base - dbase) data loff line_size;
            bus_account bus_counts bus_meter ~write:false line_size;
            (match (shadow, dshadow) with
            | Some s, Some ds -> copy_line ds (base - dbase) s loff line_size
            | Some s, None -> Taint.fill s loff line_size Taint.Public
            | None, _ -> ());
            Array.unsafe_set tags slot key;
            Array.unsafe_set occ w (Array.unsafe_get occ w lor (1 lsl (set lsr block_shift)));
            Array.unsafe_set last_way set w;
            advance clock fill_ns
          end
        end;
        w
      end
    in
    if w >= 0 then begin
      let slot = (w * sets) + set in
      let loff = (slot lsl set_shift) + off_in_line in
      if write then begin
        copy_line buf bo data loff chunk;
        (match shadow with Some s -> Taint.fill s loff chunk taint | None -> ());
        Array.unsafe_set tags slot (Array.unsafe_get tags slot lor dirty_bit)
      end
      else copy_line data loff buf bo chunk
    end;
    pos := a + chunk;
    boff := bo + chunk;
    rem := !rem - chunk
  done

(** [read_into t addr buf ~off ~len] performs a cached CPU read
    straight into the caller's buffer, no allocation. *)
let read_into t addr buf ~off ~len =
  check_view "read_into" buf ~off ~len;
  walk t ~write:false ~taint:Taint.Public buf off addr len

(** [write_from t ~taint addr buf ~off ~len] performs a cached CPU
    write (write-allocate) of the [len]-byte view of [buf] at [off],
    labelling the written bytes [taint].  The label is required, not
    optional: an optional argument boxes a [Some] on every write. *)
let write_from t ~taint addr buf ~off ~len =
  check_view "write_from" buf ~off ~len;
  walk t ~write:true ~taint buf off addr len

let iter_chunks t addr len f =
  let pos = ref addr and remaining = ref len in
  while !remaining > 0 do
    let chunk = min !remaining (t.line_size - (!pos land (t.line_size - 1))) in
    f !pos chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

(** Taint join over a physical range as the CPU sees it: resident
    lines' shadows where cached, DRAM's shadow elsewhere. *)
let taint_range t addr len =
  match t.shadow with
  | None -> Taint.Public
  | Some s ->
      let acc = ref Taint.Public in
      iter_chunks t addr len (fun a n ->
          let w = lookup_way t a in
          let lvl =
            if w >= 0 then
              Taint.max_range s (line_off t w (set_of_addr t a) + (a land (t.line_size - 1))) n
            else Dram.taint_range t.dram a n
          in
          acc := Taint.join !acc lvl);
      !acc

(** Iterate over every valid resident line: [f ~way ~addr data ~off]
    sees the line as the [line_size]-byte window of the controller's
    live store at [off] (read-only by convention) — used by analysis
    passes searching the cache for key material. *)
let iter_resident t f =
  for w = 0 to t.ways - 1 do
    for set = 0 to t.sets - 1 do
      let word = t.tags.((w * t.sets) + set) in
      if word land valid_bit <> 0 then
        f ~way:w ~addr:(line_addr t set word) t.data ~off:(line_off t w set)
    done
  done

(* ---------------------- maintenance ops -------------------------- *)

(* Clean and invalidate every way not in [skip], for both flushes.
   Slots go way-major, sets ascending, through the occupied blocks only:
   a clear bit means no valid line, which a full scan would not charge
   either, so clock and energy see the same adds in the same order.  The
   observer flag is read once, as in [walk]; unobserved, the DRAM store
   is fetched, and power checked, at the first dirty line.  A way's word
   is cleared only once the way is clean; skipped ways keep theirs. *)
let clean_invalidate_ways t skip =
  let observed =
    Sentry_obs.Trace.on () || t.on_writeback <> None || Bus.monitored t.bus
  in
  let tags = t.tags and occ = t.occ and sets = t.sets and block_shift = t.block_shift in
  let dshadow = Dram.backing_shadow t.dram in
  let store = ref Bytes.empty in
  for w = 0 to t.ways - 1 do
    if skip land (1 lsl w) = 0 then begin
      (* flushing a locked way is the §4.2 hazard: record it loudly *)
      if Sentry_obs.Trace.on () && t.lockdown land (1 lsl w) <> 0 then
        trace t "locked-way-flush" ~args:[ ("way", Sentry_obs.Event.Int w) ];
      let bits = occ.(w) in
      for b = 0 to (sets lsr block_shift) - 1 do
        if bits land (1 lsl b) <> 0 then
          for set = b lsl block_shift to ((b + 1) lsl block_shift) - 1 do
            let slot = (w * sets) + set in
            let word = Array.unsafe_get tags slot in
            if word land valid_bit <> 0 then begin
              if word land dirty_bit <> 0 then
                if observed then write_back t w set
                else begin
                  if !store == Bytes.empty then
                    store := Dram.backing t.dram (line_addr t set word) t.line_size;
                  write_back_unobserved t !store dshadow slot set word
                end;
              Array.unsafe_set tags slot (word land lnot (valid_bit lor dirty_bit))
            end
          done
      done;
      occ.(w) <- 0;
      advance t.clock Calib.pl310_op_ns
    end
  done

(** [flush_masked t] — the Sentry-patched kernel flush: cleans and
    invalidates every way {e not} excluded by the flush mask, and
    leaves the lockdown register alone. *)
let flush_masked t =
  (* the start time is read only when traced: [Clock.now] returns a boxed float *)
  let traced = Sentry_obs.Trace.on () in
  let start_ns = if traced then Clock.now t.clock else 0.0 in
  clean_invalidate_ways t t.flush_mask;
  if traced then
    trace t "flush-masked" ~ts:start_ns
      ~phase:(Sentry_obs.Event.Complete (Clock.now t.clock -. start_ns))
      ~args:[ ("skip_mask", Sentry_obs.Event.Int t.flush_mask) ]

(** [flush_all_stock t] — the stock kernel's full clean+invalidate.
    As the paper's hardware validation found (§4.2), this {e does}
    write back and drop locked ways and resets the lockdown state:
    running it with secrets in a locked way leaks them to DRAM.
    Sentry replaces every call site of this with [flush_masked]. *)
let flush_all_stock t =
  let traced = Sentry_obs.Trace.on () in
  let start_ns = if traced then Clock.now t.clock else 0.0 in
  clean_invalidate_ways t 0;
  if traced then begin
    trace t "flush-all-stock" ~ts:start_ns
      ~phase:(Sentry_obs.Event.Complete (Clock.now t.clock -. start_ns))
      ~args:[ ("dropped_lockdown", Sentry_obs.Event.Int t.lockdown) ];
    if t.lockdown <> 0 then
      trace t "way-lockdown"
        ~args:
          [ ("old_mask", Sentry_obs.Event.Int t.lockdown); ("new_mask", Sentry_obs.Event.Int 0) ]
  end;
  t.lockdown <- 0

(* Line-granule maintenance over [addr, addr + len) for DMA coherence:
   each line of the range resident in a way the flush mask does not
   skip is invalidated, after being cleaned when [clean] is set.  Lines
   go in address order, with no closure.  As in [clean_invalidate_ways],
   the observer flag is read once: observed, a dirty line goes through
   [write_back] (events, hook, monitor snapshot); otherwise through
   [write_back_unobserved], with the DRAM store fetched at the first
   dirty line.  Invalidating alone observes nothing; it clears only the
   valid bit, and no path reads an invalid line's dirty bit. *)
let maintain_range t ~clean addr len =
  if len > 0 then begin
    let observed =
      clean && (Sentry_obs.Trace.on () || t.on_writeback <> None || Bus.monitored t.bus)
    in
    let tags = t.tags and sets = t.sets and skip = t.flush_mask and line_size = t.line_size in
    let dshadow = Dram.backing_shadow t.dram in
    let store = ref Bytes.empty in
    let last = (addr + len - 1) land lnot (line_size - 1) in
    let a = ref (addr land lnot (line_size - 1)) in
    while !a <= last do
      let w = lookup_way t !a in
      if w >= 0 && skip land (1 lsl w) = 0 then begin
        let set = set_of_addr t !a in
        let slot = (w * sets) + set in
        if clean then
          if observed then write_back t w set
          else begin
            let word = tags.(slot) in
            if word land dirty_bit <> 0 then begin
              if !store == Bytes.empty then
                store := Dram.backing t.dram (line_addr t set word) line_size;
              write_back_unobserved t !store dshadow slot set word;
              tags.(slot) <- word land lnot dirty_bit
            end
          end;
        tags.(slot) <- tags.(slot) land lnot valid_bit
      end;
      a := !a + line_size
    done
  end

(** Per-line clean+invalidate used by DMA coherence code.  Honours the
    flush mask: lines resident in protected ways are left alone. *)
let clean_invalidate_range t addr len = maintain_range t ~clean:true addr len

(** Invalidate without cleaning (used before incoming DMA writes so
    the CPU does not read stale lines).  Locked/masked ways are
    skipped. *)
let invalidate_range t addr len = maintain_range t ~clean:false addr len

(** Power-on reset: the low-level firmware resets the controller and
    zeroes the data arrays, so cache contents never survive a cold
    boot (§4.3). *)
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) 0;
  Array.fill t.occ 0 t.ways 0;
  Bytes.fill t.data 0 (Bytes.length t.data) '\000';
  Option.iter (fun s -> Taint.fill s 0 (Bytes.length s) Taint.Public) t.shadow;
  t.lockdown <- 0;
  t.flush_mask <- 0;
  Array.fill t.rr 0 t.sets 0

(** Test/attack helper: the raw bytes of a resident line, if any.
    Models probing the SRAM arrays directly (requires decapping the
    SoC — out of the paper's threat model, but used by tests to check
    what is and is not inside the package). *)
let peek_line t addr =
  let w = lookup_way t addr in
  if w < 0 then None else Some (Bytes.sub t.data (line_off t w (set_of_addr t addr)) t.line_size)

let hit_rate t =
  let s = t.stats in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
