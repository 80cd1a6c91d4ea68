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

let lazy_equals_eager ~taint run () =
  let go ~eager =
    dirty_heap ();
    let m = mk () in
    if eager then ignore (Dram.raw (Machine.dram m) : Bytes.t);
    if taint then Machine.enable_taint m;
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
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "write-back snapshots" `Quick test_writeback_no_alias;
          Alcotest.test_case "byte accessors" `Quick test_byte_accessors;
        ] );
      ( "allocation",
        [ Alcotest.test_case "warm path ceiling" `Quick test_warm_path_allocation_ceiling ] );
    ]
