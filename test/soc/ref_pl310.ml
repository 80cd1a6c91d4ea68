(* Reference model of the L2 controller for differential tests: the
   per-line-record layout (one record and one [Bytes] per line) and the
   line-at-a-time access path that [Pl310]'s flat store and single walk
   replaced.  It keeps only the simulated state machine — stats, clock,
   energy, bus traffic, DRAM contents and taint, victim choice, the
   write-back hook — and none of the host-time work: no last-way memo,
   no tracing, no hoisted loop. *)

open Sentry_soc

type line = { mutable valid : bool; mutable dirty : bool; mutable tag : int; data : Bytes.t }

type t = {
  dram : Dram.t;
  clock : Clock.t;
  ways : int;
  line_size : int;
  sets : int;
  set_shift : int;
  tag_shift : int;
  meter : Energy.meter;
  lines : line array array; (* way -> set *)
  mutable lockdown : int;
  mutable flush_mask : int;
  rr : int array;
  stats : Pl310.stats;
  mutable shadows : Bytes.t array array option; (* way -> set -> line taint *)
  mutable on_writeback : (way:int -> addr:int -> locked:bool -> unit) option;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~ways ~way_size ~line_size ~dram ~clock ~energy =
  let sets = way_size / line_size in
  {
    dram;
    clock;
    ways;
    line_size;
    sets;
    set_shift = log2 line_size;
    tag_shift = log2 line_size + log2 sets;
    meter = Energy.meter energy ~category:"l2";
    lines =
      Array.init ways (fun _ ->
          Array.init sets (fun _ ->
              { valid = false; dirty = false; tag = 0; data = Bytes.make line_size '\000' }));
    lockdown = 0;
    flush_mask = 0;
    rr = Array.make sets 0;
    stats = { Pl310.hits = 0; misses = 0; writebacks = 0; bypasses = 0 };
    shadows = None;
    on_writeback = None;
  }

let enable_taint t =
  Dram.enable_taint t.dram;
  if t.shadows = None then
    t.shadows <-
      Some
        (Array.init t.ways (fun _ ->
             Array.init t.sets (fun _ -> Taint.create_shadow t.line_size)))

let set_writeback_hook t f = t.on_writeback <- Some f
let clear_writeback_hook t = t.on_writeback <- None
let set_of_addr t addr = (addr lsr t.set_shift) land (t.sets - 1)
let tag_of_addr t addr = addr lsr t.tag_shift

let set_lockdown t mask =
  Clock.advance t.clock Calib.pl310_op_ns;
  t.lockdown <- mask land ((1 lsl t.ways) - 1)

let set_flush_mask t mask = t.flush_mask <- mask land ((1 lsl t.ways) - 1)

let way_of t addr =
  let set = set_of_addr t addr and tag = tag_of_addr t addr in
  let rec scan w =
    if w = t.ways then None
    else
      let l = t.lines.(w).(set) in
      if l.valid && l.tag = tag then Some w else scan (w + 1)
  in
  scan 0

let write_back t w set =
  let l = t.lines.(w).(set) in
  if l.valid && l.dirty then begin
    let addr = (l.tag lsl t.tag_shift) lor (set lsl t.set_shift) in
    (match t.shadows with
    | Some s ->
        Dram.write_from t.dram ~initiator:`L2 ~taint:s.(w).(set) addr l.data ~off:0 ~len:t.line_size
    | None -> Dram.write_from t.dram ~initiator:`L2 addr l.data ~off:0 ~len:t.line_size);
    Clock.advance t.clock Calib.dram_line_ns;
    l.dirty <- false;
    t.stats.writebacks <- t.stats.writebacks + 1;
    match t.on_writeback with
    | Some f -> f ~way:w ~addr ~locked:(t.lockdown land (1 lsl w) <> 0)
    | None -> ()
  end

let unlocked t w = t.lockdown land (1 lsl w) = 0

(* An invalid line in an unlocked way, else round-robin over unlocked
   ways, else -1. *)
let victim_way t set =
  let rec find_invalid w =
    if w = t.ways then -1
    else if unlocked t w && not t.lines.(w).(set).valid then w
    else find_invalid (w + 1)
  in
  let rec next_unlocked w =
    if unlocked t (w mod t.ways) then w mod t.ways else next_unlocked (w + 1)
  in
  let w = find_invalid 0 in
  if w >= 0 then w
  else if List.for_all (fun w -> not (unlocked t w)) (List.init t.ways Fun.id) then -1
  else begin
    let w = next_unlocked t.rr.(set) in
    t.rr.(set) <- (w + 1) mod t.ways;
    w
  end

let fill_way t addr =
  let set = set_of_addr t addr in
  let w = victim_way t set in
  if w >= 0 then begin
    let l = t.lines.(w).(set) in
    write_back t w set;
    let base = addr land lnot (t.line_size - 1) in
    Dram.read_into t.dram ~initiator:`L2 base l.data ~off:0 ~len:t.line_size;
    Option.iter (fun s -> Dram.blit_shadow_into t.dram base t.line_size s.(w).(set) 0) t.shadows;
    l.valid <- true;
    l.dirty <- false;
    l.tag <- tag_of_addr t addr;
    Clock.advance t.clock (Calib.l2_hit_line_ns +. Calib.dram_line_ns)
  end;
  w

let access_chunk t addr ~write ~taint buf buf_off len =
  let store w =
    let set = set_of_addr t addr in
    let l = t.lines.(w).(set) and off = addr land (t.line_size - 1) in
    if write then begin
      Bytes.blit buf buf_off l.data off len;
      Option.iter (fun s -> Taint.fill s.(w).(set) off len taint) t.shadows;
      l.dirty <- true
    end
    else Bytes.blit l.data off buf buf_off len
  in
  match way_of t addr with
  | Some w ->
      t.stats.hits <- t.stats.hits + 1;
      Clock.advance t.clock Calib.l2_hit_line_ns;
      Energy.meter_charge_bytes t.meter ~per_byte_j:Calib.onsoc_byte_j t.line_size;
      store w
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      let w = fill_way t addr in
      if w >= 0 then store w
      else begin
        t.stats.bypasses <- t.stats.bypasses + 1;
        Clock.advance t.clock Calib.dram_line_ns;
        if write then Dram.write_from t.dram ~initiator:`Cpu ~level:taint addr buf ~off:buf_off ~len
        else Dram.read_into t.dram ~initiator:`Cpu addr buf ~off:buf_off ~len
      end

let rec rw t addr ~write ~taint buf buf_off len =
  if len > 0 then begin
    let chunk = min len (t.line_size - (addr land (t.line_size - 1))) in
    access_chunk t addr ~write ~taint buf buf_off chunk;
    rw t (addr + chunk) ~write ~taint buf (buf_off + chunk) (len - chunk)
  end

let read_into t addr buf ~off ~len = rw t addr ~write:false ~taint:Taint.Public buf off len
let write_from t ~taint addr buf ~off ~len = rw t addr ~write:true ~taint buf off len

(* Lines of [addr, addr + len), one call per line. *)
let iter_lines t addr len f =
  let first = addr land lnot (t.line_size - 1) in
  let rec go a = if a < addr + len then (f a; go (a + t.line_size)) in
  if len > 0 then go first

let taint_range t addr len =
  match t.shadows with
  | None -> Taint.Public
  | Some s ->
      let acc = ref Taint.Public in
      iter_lines t addr len (fun line ->
          let lo = max addr line and hi = min (addr + len) (line + t.line_size) in
          let lvl =
            match way_of t line with
            | Some w -> Taint.max_range s.(w).(set_of_addr t line) (lo - line) (hi - lo)
            | None -> Dram.taint_range t.dram lo (hi - lo)
          in
          acc := Taint.join !acc lvl);
      !acc

let clean_invalidate_way t w =
  for set = 0 to t.sets - 1 do
    write_back t w set;
    t.lines.(w).(set).valid <- false
  done;
  Clock.advance t.clock Calib.pl310_op_ns

let flush_masked t =
  for w = 0 to t.ways - 1 do
    if t.flush_mask land (1 lsl w) = 0 then clean_invalidate_way t w
  done

let flush_all_stock t =
  for w = 0 to t.ways - 1 do
    clean_invalidate_way t w
  done;
  t.lockdown <- 0

let clean_invalidate_range t addr len =
  iter_lines t addr len (fun a ->
      match way_of t a with
      | Some w when t.flush_mask land (1 lsl w) = 0 ->
          write_back t w (set_of_addr t a);
          t.lines.(w).(set_of_addr t a).valid <- false
      | Some _ | None -> ())

let invalidate_range t addr len =
  iter_lines t addr len (fun a ->
      match way_of t a with
      | Some w when t.flush_mask land (1 lsl w) = 0 -> t.lines.(w).(set_of_addr t a).valid <- false
      | Some _ | None -> ())

let reset t =
  Array.iteri
    (fun w row ->
      Array.iteri
        (fun set l ->
          l.valid <- false;
          l.dirty <- false;
          l.tag <- 0;
          Bytes.fill l.data 0 t.line_size '\000';
          Option.iter (fun s -> Taint.fill s.(w).(set) 0 t.line_size Taint.Public) t.shadows)
        row)
    t.lines;
  t.lockdown <- 0;
  t.flush_mask <- 0;
  Array.fill t.rr 0 t.sets 0

let peek_line t addr =
  Option.map (fun w -> Bytes.copy t.lines.(w).(set_of_addr t addr).data) (way_of t addr)
