(* Differential tests for the zero-allocation scatter-gather memory
   path: the [_into]/[_from] APIs must leave every piece of simulated
   state — bytes, clock, energy, bus statistics, cache statistics,
   taint shadows — bit-identical to the allocating [read]/[write] pair
   they replace.  Only host wall-clock and GC pressure may differ. *)

open Sentry_util
open Sentry_soc

let check_bytes = Alcotest.(check bytes)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0)) (* exact: bit-identity, not tolerance *)

let mk () = Machine.create ~seed:7 (Machine.tegra3 ~dram_size:(4 * Units.mib) ())

let payload n c = Bytes.init n (fun i -> Char.chr ((Char.code c + (i * 7)) land 0xff))

(* Drive one scripted workload against a fresh machine.  With
   [use_into] the script goes through the scatter-gather API, always
   at a non-zero view offset inside an oversized buffer, so the view
   arithmetic is exercised; otherwise it uses the allocating API.  The
   script covers line-straddling accesses, a page-sized transfer,
   taint-labelled stores, lockdown + masked flush, and single bytes. *)
let script ~use_into m =
  let base = (Machine.dram_region m).Memmap.base in
  let do_write addr b =
    if use_into then begin
      let buf = Bytes.make (Bytes.length b + 13) '\xaa' in
      Bytes.blit b 0 buf 5 (Bytes.length b);
      Machine.write_from m addr buf ~off:5 ~len:(Bytes.length b)
    end
    else Machine.write m addr b
  in
  let do_read addr len =
    if use_into then begin
      let buf = Bytes.make (len + 9) '\x00' in
      Machine.read_into m addr buf ~off:4 ~len;
      Bytes.sub buf 4 len
    end
    else Machine.read m addr len
  in
  do_write (base + 30) (payload 100 'a') (* straddles line boundaries *);
  do_write (base + 4096) (payload 4096 'b') (* page-sized *);
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      do_write (base + 8192 + 17) (payload 515 'c'));
  let r1 = do_read (base + 30) 100 in
  let r2 = do_read (base + 4096) 4096 in
  Pl310.set_lockdown (Machine.l2 m) 0b1;
  Pl310.set_flush_mask (Machine.l2 m) 0b1;
  Machine.with_taint m Taint.Ciphertext (fun () -> do_write (base + 16384 + 3) (payload 61 'd'));
  Pl310.flush_masked (Machine.l2 m);
  let r3 = do_read (base + 8192 + 17) 515 in
  Machine.write_byte m (base + 100_000) 'z';
  let rb = Bytes.make 1 (Machine.read_byte m (base + 100_000)) in
  Bytes.concat Bytes.empty [ r1; r2; r3; rb ]

let drive ~taint ~use_into =
  let m = mk () in
  if taint then Machine.enable_taint m;
  (m, script ~use_into m)

let assert_identical m_a m_b =
  checkf "simulated clock" (Machine.now m_a) (Machine.now m_b);
  checkf "energy total" (Energy.total (Machine.energy m_a)) (Energy.total (Machine.energy m_b));
  Alcotest.(check (list (pair string (float 0.0))))
    "energy categories"
    (Energy.categories (Machine.energy m_a))
    (Energy.categories (Machine.energy m_b));
  let sa = Pl310.stats (Machine.l2 m_a) and sb = Pl310.stats (Machine.l2 m_b) in
  checki "l2 hits" sa.Pl310.hits sb.Pl310.hits;
  checki "l2 misses" sa.Pl310.misses sb.Pl310.misses;
  checki "l2 writebacks" sa.Pl310.writebacks sb.Pl310.writebacks;
  checki "l2 bypasses" sa.Pl310.bypasses sb.Pl310.bypasses;
  let ta, ra, wa = Bus.stats (Machine.bus m_a) and tb, rb, wb = Bus.stats (Machine.bus m_b) in
  checki "bus transactions" ta tb;
  checki "bus bytes read" ra rb;
  checki "bus bytes written" wa wb;
  check_bytes "dram contents" (Dram.snapshot (Machine.dram m_a)) (Dram.snapshot (Machine.dram m_b));
  match (Dram.shadow (Machine.dram m_a), Dram.shadow (Machine.dram m_b)) with
  | Some a, Some b -> check_bytes "dram taint shadow" (Bytes.copy a) (Bytes.copy b)
  | None, None -> ()
  | _ -> Alcotest.fail "taint enabled on only one machine"

let test_differential_plain () =
  let m_a, bytes_a = drive ~taint:false ~use_into:false in
  let m_b, bytes_b = drive ~taint:false ~use_into:true in
  check_bytes "read-back bytes" bytes_a bytes_b;
  assert_identical m_a m_b

let test_differential_tainted () =
  let m_a, bytes_a = drive ~taint:true ~use_into:false in
  let m_b, bytes_b = drive ~taint:true ~use_into:true in
  check_bytes "read-back bytes" bytes_a bytes_b;
  assert_identical m_a m_b

(* ------------------- first-touch DRAM zeroing ---------------------- *)

(* DRAM is zero-filled one 64 KiB chunk at a time on first touch.
   That must be invisible: a script run on a machine whose DRAM was
   materialised with [Dram.raw] right after [create] (eager) and on an
   untouched one (lazy) must leave the same read-back bytes, clock,
   energy, cache and bus statistics, DRAM image, taint shadow and PRNG
   stream. *)
let chunk = 64 * Units.kib

(* Leave a freed 0xA5-filled block of [mk]'s DRAM size for the host
   allocator to hand back to the next same-size allocation, so a path
   that skips the zeroing reads garbage instead of the fresh zero
   pages the OS hands out.  glibc maps blocks above its mmap threshold
   afresh on every allocation; freeing a larger mapped block first
   raises the threshold past the DRAM size, so the filler (and then
   the DRAM store) come from the reusable heap. *)
let dirty_heap () =
  let n = 4 * Units.mib in
  ignore (Sys.opaque_identity (Bytes.create (n + Units.mib)));
  Gc.full_major ();
  ignore (Sys.opaque_identity (Bytes.make n '\xa5'));
  Gc.full_major ()

(* With [taint], the allocator is primed again before tracking is
   enabled, so the DRAM taint shadow (allocated uninitialised, labelled
   on first touch) also starts out dirty.  The eager machine enables
   tracking after [Dram.raw]: its shadow is labelled at [enable_taint]. *)
let lazy_equals_eager ~taint run () =
  let go ~eager =
    dirty_heap ();
    let m = mk () in
    if eager then ignore (Dram.raw (Machine.dram m) : Bytes.t);
    if taint then begin
      dirty_heap ();
      Machine.enable_taint m
    end;
    let out = run m in
    (m, out)
  in
  let m_e, out_e = go ~eager:true in
  let m_l, out_l = go ~eager:false in
  check_bytes "read-back bytes" out_e out_l;
  checki "next PRNG draw" (Prng.bits (Machine.prng m_e)) (Prng.bits (Machine.prng m_l));
  assert_identical m_e m_l

(* Accesses straddling a chunk boundary with only one side touched,
   through every path: generic cached, page runs, uncached, DMA, the
   zeroing thread's raw store, and write-backs of dirty lines. *)
let straddle m =
  let base = (Machine.dram_region m).Memmap.base in
  let at c delta = base + (c * chunk) + delta in
  Machine.write m (at 0 100) (payload 8 'e') (* touches chunk 0 only *);
  Machine.write m (at 1 (-12)) (payload 24 'f') (* into untouched chunk 1 *);
  let r1 = Machine.read m (at 2 (-40)) 80 (* chunk 1 touched, chunk 2 not *) in
  let run = Bytes.create 4096 in
  Machine.read_run_into m (at 3 (-2048)) run ~off:0 ~len:4096;
  Machine.write_run_from m (at 4 (-2048)) (payload 4096 'g') ~off:0 ~len:4096;
  let r2 = Machine.read_uncached m (at 5 (-16)) 32 in
  let r3 =
    match Dma.read (Machine.dma m) ~addr:(at 6 (-8)) ~len:16 with
    | Ok b -> b
    | Error _ -> Alcotest.fail "DMA read of DRAM refused"
  in
  Machine.write_raw m (at 7 (-24)) (payload 48 'h');
  Pl310.set_flush_mask (Machine.l2 m) 0xff;
  Pl310.flush_masked (Machine.l2 m) (* writes every dirty line back *);
  let r4 = Machine.read m (at 8 (-4096)) 8192 in
  Bytes.concat Bytes.empty [ r1; run; r2; r3; r4 ]

(* Data near both ends of a mostly untouched module, pushed to DRAM,
   then a reset, then read back along with never-touched ranges. *)
let reboot kind m =
  let base = (Machine.dram_region m).Memmap.base in
  let top = base + (Machine.config m).Machine.dram_size in
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      Machine.write m (base + 64) (payload 256 'k');
      Machine.write m (top - chunk - 300) (payload 600 'l'));
  Pl310.set_flush_mask (Machine.l2 m) 0xff;
  Pl310.flush_masked (Machine.l2 m);
  Machine.reboot m kind;
  let lo = Machine.read m (base + 64) 256 in
  let hi = Machine.read m (top - chunk - 300) 600 in
  let cold = Machine.read m (base + (20 * chunk)) 4096 in
  Bytes.concat Bytes.empty [ lo; hi; cold ]

(* Never-written DRAM reads zero through every path even when the
   allocator recycles dirty memory for the backing store.  Each path
   reads a chunk no earlier access touched; the whole-image snapshot
   comes last. *)
let test_dirty_allocator_reads_zero () =
  dirty_heap ();
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  let zeros n = Bytes.make n '\000' in
  let buf = Bytes.make 4096 '\xee' in
  Machine.read_into m (base + chunk) buf ~off:0 ~len:4096;
  check_bytes "generic read_into" (zeros 4096) buf;
  Bytes.fill buf 0 4096 '\xee';
  Machine.read_run_into m (base + (2 * chunk)) buf ~off:0 ~len:4096;
  check_bytes "read_run_into fast path" (zeros 4096) buf;
  (match Dma.read (Machine.dma m) ~addr:(base + (3 * chunk)) ~len:4096 with
  | Ok b -> check_bytes "DMA read" (zeros 4096) b
  | Error _ -> Alcotest.fail "DMA read of DRAM refused");
  let size = (Machine.config m).Machine.dram_size in
  check_bytes "snapshot" (zeros size) (Dram.snapshot (Machine.dram m))

(* The DRAM taint shadow is allocated uninitialised: a range no access
   touched must still read [Public], through the range query and in
   the whole-image shadow, even from a dirty allocator.  Only the one
   labelled store shows up. *)
let test_untouched_shadow_public () =
  dirty_heap ();
  let m = mk () in
  dirty_heap ();
  Machine.enable_taint m;
  let dram = Machine.dram m in
  let base = (Machine.dram_region m).Memmap.base in
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      Machine.write m (base + chunk + 96) (payload 64 's'));
  Pl310.flush_masked (Machine.l2 m) (* the labelled line reaches DRAM *);
  let public = Alcotest.testable Taint.pp ( = ) in
  Alcotest.check public "untouched range via the cache" Taint.Public
    (Machine.taint_of m (base + (5 * chunk)) 4096);
  Alcotest.check public "untouched chunk in DRAM" Taint.Public
    (Dram.taint_range dram (base + (6 * chunk)) chunk);
  match Dram.shadow dram with
  | None -> Alcotest.fail "no DRAM shadow"
  | Some sh ->
      Alcotest.(check (list (pair int int)))
        "only the labelled store is above Public" [ (chunk + 96, 64) ]
        (Taint.runs sh ~level:Taint.Ciphertext)

(* The write-back path passes the live line array to DRAM as a view
   instead of copying it.  The bus monitor's transaction and the DRAM
   contents must still be snapshots: mutating the line after the
   write-back may not alter either retroactively. *)
let test_writeback_no_alias () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  let captured = ref [] in
  let detach =
    Bus.attach_monitor (Machine.bus m) (fun txn ->
        if txn.Bus.op = Bus.Write then captured := txn :: !captured)
  in
  Machine.write m base (Bytes.make 32 'A');
  Pl310.flush_masked (Machine.l2 m) (* writes the 'A' line back *);
  Machine.write m base (Bytes.make 32 'B') (* re-fills and mutates the same line *);
  detach ();
  let wb =
    match List.find_opt (fun txn -> txn.Bus.addr = base && txn.Bus.initiator = `L2) !captured with
    | Some txn -> txn
    | None -> Alcotest.fail "no write-back transaction captured"
  in
  check_bytes "monitor still sees the written-back bytes" (Bytes.make 32 'A') wb.Bus.data;
  check_bytes "dram still holds the written-back bytes" (Bytes.make 32 'A')
    (Bytes.sub (Dram.raw (Machine.dram m)) 0 32)

(* Byte accessors share the machine's scratch buffer; they must still
   behave like 1-byte reads/writes. *)
let test_byte_accessors () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  Machine.write m base (Bytes.of_string "hello");
  Alcotest.(check char) "read_byte" 'e' (Machine.read_byte m (base + 1));
  Machine.write_byte m (base + 1) 'u';
  check_bytes "write_byte lands" (Bytes.of_string "hullo") (Machine.read m base 5)

(* Allocation regression: the warm cached path must stay allocation
   free.  The ceiling is generous (the old path allocated hundreds of
   words per access; the fast path allocates none) so the test only
   trips on a real regression, not on compiler-version noise. *)
let test_warm_path_allocation_ceiling () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  let buf = Bytes.create 4096 in
  Machine.write_from m base buf ~off:0 ~len:4096 (* warm the lines *);
  let mw0 = Gc.minor_words () in
  for _ = 1 to 64 do
    Machine.read_into m base buf ~off:0 ~len:4096;
    Machine.write_from m base buf ~off:0 ~len:4096
  done;
  let per_page = (Gc.minor_words () -. mw0) /. 128.0 in
  if per_page > 64.0 then
    Alcotest.failf "warm 4 KB access allocated %.1f minor words (ceiling 64)" per_page

(* [Pl310.create] builds its arrays straight in the major heap: the
   minor heap sees only the record, the stats and the meter. *)
let test_create_allocation_ceiling () =
  let m = mk () in
  let dram = Machine.dram m and clock = Machine.clock m and energy = Machine.energy m in
  let mw0 = Gc.minor_words () in
  let l2 = Pl310.create ~dram ~clock ~energy () in
  let words = Gc.minor_words () -. mw0 in
  ignore (Sys.opaque_identity l2);
  if words > 100.0 then Alcotest.failf "Pl310.create allocated %.0f minor words (ceiling 100)" words

(* Cold page runs — every line a miss, most evicting a dirty line, DRAM
   chunks zeroed on first touch — allocate nothing either. *)
let test_cold_run_allocation_ceiling () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  let page i = base + (i * 4096) in
  let buf = Bytes.create 4096 in
  for i = 0 to 255 do
    Machine.write_run_from m (page i) buf ~off:0 ~len:4096 (* 1 MiB: every line dirty *)
  done;
  let s = Pl310.stats (Machine.l2 m) in
  let misses0 = s.Pl310.misses and wb0 = s.Pl310.writebacks in
  let mw0 = Gc.minor_words () in
  for i = 256 to 256 + 31 do
    Machine.write_run_from m (page i) buf ~off:0 ~len:4096;
    Machine.read_run_into m (page (i + 256)) buf ~off:0 ~len:4096
  done;
  let per_call = (Gc.minor_words () -. mw0) /. 64.0 in
  checki "every line missed" (64 * 128) (s.Pl310.misses - misses0);
  if s.Pl310.writebacks - wb0 < 32 * 128 then
    Alcotest.fail "the runs wrote back too few dirty lines";
  if per_call > 8.0 then
    Alcotest.failf "cold 4 KB run allocated %.1f minor words per call (ceiling 8)" per_call

(* The masked flush allocates nothing either, whether it writes back
   eight dirty pages or finds the L2 clean. *)
let test_flush_allocation_ceiling () =
  let m = mk () in
  let l2 = Machine.l2 m in
  let base = (Machine.dram_region m).Memmap.base in
  let buf = Bytes.create 4096 in
  let dirty () =
    for i = 0 to 7 do
      Machine.write_run_from m (base + (i * 4096)) buf ~off:0 ~len:4096
    done
  in
  let flush_words ~dirtied =
    let words = ref 0 in
    for _ = 1 to 64 do
      if dirtied then dirty ();
      let mw0 = Gc.minor_words () in
      Pl310.flush_masked l2;
      words := !words + int_of_float (Gc.minor_words () -. mw0)
    done;
    float_of_int !words /. 64.0
  in
  let wb0 = (Pl310.stats l2).Pl310.writebacks in
  let dirtied = flush_words ~dirtied:true in
  checki "every dirty line written back" (64 * 8 * 128) ((Pl310.stats l2).Pl310.writebacks - wb0);
  let clean = flush_words ~dirtied:false in
  List.iter
    (fun (what, per_call) ->
      if per_call > 1.0 then
        Alcotest.failf "flush_masked (%s) allocated %.1f minor words per call (ceiling 1)" what
          per_call)
    [ ("8 dirty pages", dirtied); ("clean L2", clean) ]

(* Lines filled into a way the flush mask skips must survive that
   flush and still be cleaned by the next one once the mask is lifted:
   skipping a way may not forget which of its sets hold lines. *)
let test_masked_way_flushed_later () =
  let m = mk () in
  let l2 = Machine.l2 m in
  let base = (Machine.dram_region m).Memmap.base in
  (* one page in each of three occupancy blocks of way 0 *)
  let addrs = [ base; base + (40 * Units.kib); base + (100 * Units.kib) ] in
  Pl310.set_lockdown l2 0xfe (* every allocation lands in way 0 *);
  Pl310.set_flush_mask l2 0b1;
  List.iteri (fun i a -> Machine.write m a (payload 4096 (Char.chr (Char.code 'p' + i)))) addrs;
  let wb0 = (Pl310.stats l2).Pl310.writebacks in
  Pl310.flush_masked l2;
  checki "the masked flush writes nothing back" wb0 (Pl310.stats l2).Pl310.writebacks;
  List.iter
    (fun a -> Alcotest.(check (option int)) "line survives the masked flush" (Some 0) (Pl310.lookup l2 a))
    addrs;
  Pl310.set_flush_mask l2 0;
  Pl310.flush_masked l2;
  checki "every dirty line written back" (3 * 128) ((Pl310.stats l2).Pl310.writebacks - wb0);
  let valid = ref 0 in
  Pl310.iter_resident l2 (fun ~way:_ ~addr:_ _ ~off:_ -> incr valid);
  checki "no valid line remains" 0 !valid;
  let raw = Dram.raw (Machine.dram m) in
  List.iteri
    (fun i a ->
      check_bytes "DRAM holds the written-back page"
        (payload 4096 (Char.chr (Char.code 'p' + i)))
        (Bytes.sub raw (a - base) 4096))
    addrs

(* --------------- reference-model differential (qcheck) -------------- *)

(* [Pl310] against [Ref_pl310], the per-line-record controller it
   replaced, over random operation sequences on two identical small
   systems.  Small geometries keep conflicts, evictions and bypasses
   frequent.  [Read_run]/[Write_run] issue page-aligned 4 KiB runs, the
   batched pipeline's shape. *)
type op =
  | Read of int * int
  | Write of int * int * Taint.level
  | Read_run of int
  | Write_run of int * Taint.level
  | Lockdown of int
  | Flush_mask of int
  | Flush_masked
  | Flush_all_stock
  | Clean_invalidate of int * int
  | Invalidate of int * int
  | Reset
  | Enable_taint
  | Hook of bool
  | Monitor of bool

let pp_op = function
  | Read (o, n) -> Printf.sprintf "read %d+%d" o n
  | Write (o, n, l) -> Printf.sprintf "write %d+%d %s" o n (Taint.to_string l)
  | Read_run p -> Printf.sprintf "read_run page %d" p
  | Write_run (p, l) -> Printf.sprintf "write_run page %d %s" p (Taint.to_string l)
  | Lockdown m -> Printf.sprintf "lockdown 0x%x" m
  | Flush_mask m -> Printf.sprintf "flush_mask 0x%x" m
  | Flush_masked -> "flush_masked"
  | Flush_all_stock -> "flush_all_stock"
  | Clean_invalidate (o, n) -> Printf.sprintf "clean_invalidate %d+%d" o n
  | Invalidate (o, n) -> Printf.sprintf "invalidate %d+%d" o n
  | Reset -> "reset"
  | Enable_taint -> "enable_taint"
  | Hook b -> Printf.sprintf "hook %b" b
  | Monitor b -> Printf.sprintf "monitor %b" b

let ref_dram_size = 128 * Units.kib

let gen_case =
  let open QCheck.Gen in
  (* 8 x 8 KiB has 256 sets, 8 per occupancy block; the smaller
     geometries have at most 2 *)
  let* ways, way_size = oneofl [ (4, Units.kib); (8, 2 * Units.kib); (8, 8 * Units.kib) ] in
  let full = (1 lsl ways) - 1 in
  let mask = frequency [ (3, int_bound full); (1, return full); (1, return 0) ] in
  let level = oneofl [ Taint.Public; Taint.Ciphertext; Taint.Secret_cleartext ] in
  (* mostly a hot 16 KiB window, sometimes straddling the 64 KiB chunk
     boundary (first-touch zeroing of the second chunk) *)
  let range =
    let* off =
      frequency
        [ (4, int_bound ((16 * Units.kib) - 1)); (1, int_range (60 * Units.kib) (68 * Units.kib)) ]
    in
    let+ len = int_range 1 200 in
    (off, len)
  in
  let page = frequency [ (4, int_bound 3); (1, int_bound ((ref_dram_size / 4096) - 1)) ] in
  let op =
    frequency
      [
        (6, map (fun (o, n) -> Read (o, n)) range);
        (6, map2 (fun (o, n) l -> Write (o, n, l)) range level);
        (2, map (fun p -> Read_run p) page);
        (2, map2 (fun p l -> Write_run (p, l)) page level);
        (2, map (fun m -> Lockdown m) mask);
        (1, map (fun m -> Flush_mask m) mask);
        (1, return Flush_masked);
        (1, return Flush_all_stock);
        (1, map (fun (o, n) -> Clean_invalidate (o, n)) range);
        (1, map (fun (o, n) -> Invalidate (o, n)) range);
        (1, return Reset);
        (1, return Enable_taint);
        (1, map (fun b -> Hook b) bool);
        (1, map (fun b -> Monitor b) bool);
      ]
  in
  let+ ops = list_size (int_range 1 80) op in
  (ways, way_size, ops)

let print_case (ways, way_size, ops) =
  Printf.sprintf "%d ways x %d B: %s" ways way_size (String.concat "; " (List.map pp_op ops))

type sys = { clock : Clock.t; energy : Energy.t; bus : Bus.t; dram : Dram.t }

let small_sys () =
  let clock = Clock.create () and energy = Energy.create () in
  let bus = Bus.create ~clock ~energy in
  let dram = Dram.create ~bus ~clock ~prng:(Prng.create ~seed:1) ~size:ref_dram_size in
  { clock; energy; bus; dram }

let same_scalars (a : sys) l2 (b : sys) rf =
  let sa = Pl310.stats l2 and sb = rf.Ref_pl310.stats in
  sa = sb
  && Clock.now a.clock = Clock.now b.clock
  && Energy.categories a.energy = Energy.categories b.energy
  && Bus.stats a.bus = Bus.stats b.bus

let reference_differential (ways, way_size, ops) =
  let a = small_sys () and b = small_sys () in
  let l2 =
    Pl310.create ~ways ~way_size ~line_size:32 ~dram:a.dram ~clock:a.clock ~energy:a.energy ()
  in
  let rf =
    Ref_pl310.create ~ways ~way_size ~line_size:32 ~dram:b.dram ~clock:b.clock ~energy:b.energy
  in
  let base = (Dram.region a.dram).Memmap.base in
  let log_a = ref [] and log_b = ref [] in
  (* bus transactions the attached monitors saw during the current op *)
  let txns_a = ref [] and txns_b = ref [] in
  let detach = ref None in
  let txn_view (x : Bus.transaction) = (x.Bus.op, x.Bus.addr, Bytes.to_string x.Bus.data, x.Bus.taint) in
  let touched = ref [] in
  let line a = a land lnot 31 in
  let touch o n = touched := line (base + o) :: line (base + o + n - 1) :: !touched in
  let read o n =
    let buf_a = Bytes.make (n + 5) '\x55' and buf_b = Bytes.make (n + 5) '\x55' in
    Pl310.read_into l2 (base + o) buf_a ~off:2 ~len:n;
    Ref_pl310.read_into rf (base + o) buf_b ~off:2 ~len:n;
    Bytes.equal buf_a buf_b
  in
  let write o n taint =
    let buf = Bytes.init (n + 5) (fun i -> Char.chr ((o + (i * 31)) land 0xff)) in
    Pl310.write_from l2 ~taint (base + o) buf ~off:2 ~len:n;
    Ref_pl310.write_from rf ~taint (base + o) buf ~off:2 ~len:n;
    true
  in
  let step op =
    let ok =
      match op with
      | Read (o, n) -> touch o n; read o n
      | Write (o, n, l) -> touch o n; write o n l
      | Read_run p -> touch (p * 4096) 4096; read (p * 4096) 4096
      | Write_run (p, l) -> touch (p * 4096) 4096; write (p * 4096) 4096 l
      | Lockdown m -> Pl310.set_lockdown l2 m; Ref_pl310.set_lockdown rf m; true
      | Flush_mask m -> Pl310.set_flush_mask l2 m; Ref_pl310.set_flush_mask rf m; true
      | Flush_masked -> Pl310.flush_masked l2; Ref_pl310.flush_masked rf; true
      | Flush_all_stock -> Pl310.flush_all_stock l2; Ref_pl310.flush_all_stock rf; true
      | Clean_invalidate (o, n) ->
          Pl310.clean_invalidate_range l2 (base + o) n;
          Ref_pl310.clean_invalidate_range rf (base + o) n;
          true
      | Invalidate (o, n) ->
          Pl310.invalidate_range l2 (base + o) n;
          Ref_pl310.invalidate_range rf (base + o) n;
          true
      | Reset -> Pl310.reset l2; Ref_pl310.reset rf; true
      | Enable_taint -> Pl310.enable_taint l2; Ref_pl310.enable_taint rf; true
      | Hook true ->
          Pl310.set_writeback_hook l2 (fun ~way ~addr ~locked ->
              log_a := (way, addr, locked) :: !log_a);
          Ref_pl310.set_writeback_hook rf (fun ~way ~addr ~locked ->
              log_b := (way, addr, locked) :: !log_b);
          true
      | Hook false -> Pl310.clear_writeback_hook l2; Ref_pl310.clear_writeback_hook rf; true
      | Monitor true ->
          if !detach = None then begin
            let da = Bus.attach_monitor a.bus (fun x -> txns_a := txn_view x :: !txns_a) in
            let db = Bus.attach_monitor b.bus (fun x -> txns_b := txn_view x :: !txns_b) in
            detach := Some (fun () -> da (); db ())
          end;
          true
      | Monitor false ->
          Option.iter (fun f -> f ()) !detach;
          detach := None;
          true
    in
    if not (ok && same_scalars a l2 b rf && !txns_a = !txns_b) then
      QCheck.Test.fail_reportf "diverged at %s" (pp_op op);
    txns_a := [];
    txns_b := []
  in
  List.iter step ops;
  let line_state addr =
    (Pl310.lookup l2 addr, Pl310.peek_line l2 addr, Pl310.taint_range l2 addr 32)
  and ref_state addr =
    (Ref_pl310.way_of rf addr, Ref_pl310.peek_line rf addr, Ref_pl310.taint_range rf addr 32)
  in
  List.for_all (fun addr -> line_state addr = ref_state addr) !touched
  && !log_a = !log_b
  && Pl310.lockdown l2 = rf.Ref_pl310.lockdown
  && Bytes.equal (Dram.snapshot a.dram) (Dram.snapshot b.dram)
  && Option.equal Bytes.equal (Dram.shadow a.dram) (Dram.shadow b.dram)

let test_reference_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"flat store = per-line records"
       (QCheck.make ~print:print_case gen_case)
       reference_differential)

let () =
  Alcotest.run "sentry_soc_fastpath"
    [
      ( "differential",
        [
          Alcotest.test_case "into = allocating (taint off)" `Quick test_differential_plain;
          Alcotest.test_case "into = allocating (taint on)" `Quick test_differential_tainted;
        ] );
      ( "lazy = eager",
        [
          Alcotest.test_case "drive script (taint off)" `Quick
            (lazy_equals_eager ~taint:false (script ~use_into:true));
          Alcotest.test_case "drive script (taint on)" `Quick
            (lazy_equals_eager ~taint:true (script ~use_into:true));
          Alcotest.test_case "chunk-straddling accesses" `Quick
            (lazy_equals_eager ~taint:true straddle);
          Alcotest.test_case "warm reboot" `Quick
            (lazy_equals_eager ~taint:true (reboot Machine.Warm));
          Alcotest.test_case "hard reset" `Quick
            (lazy_equals_eager ~taint:true (reboot (Machine.Hard_reset 2.0)));
          Alcotest.test_case "dirty allocator reads zero" `Quick
            test_dirty_allocator_reads_zero;
          Alcotest.test_case "untouched shadow reads public" `Quick test_untouched_shadow_public;
        ] );
      ( "reference model",
        [
          test_reference_model;
          Alcotest.test_case "masked way flushed later" `Quick test_masked_way_flushed_later;
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "write-back snapshots" `Quick test_writeback_no_alias;
          Alcotest.test_case "byte accessors" `Quick test_byte_accessors;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm path ceiling" `Quick test_warm_path_allocation_ceiling;
          Alcotest.test_case "create ceiling" `Quick test_create_allocation_ceiling;
          Alcotest.test_case "cold run ceiling" `Quick test_cold_run_allocation_ceiling;
          Alcotest.test_case "flush ceiling" `Quick test_flush_allocation_ceiling;
        ] );
    ]
