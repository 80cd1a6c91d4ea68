open Sentry_util
open Sentry_soc

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fresh ?(dram_size = 4 * Units.mib) ?(seed = 1) () =
  Machine.create ~seed (Machine.tegra3 ~dram_size ())

let dram_base m = (Machine.dram_region m).Memmap.base
let iram_base m = (Machine.iram_region m).Memmap.base

(* ----------------------------- Memmap ----------------------------- *)

let test_memmap_regions () =
  let r = Memmap.region ~base:0x1000 ~size:0x100 in
  checkb "contains base" true (Memmap.contains r 0x1000);
  checkb "contains last" true (Memmap.contains r 0x10ff);
  checkb "excludes limit" false (Memmap.contains r 0x1100);
  checki "offset" 0x40 (Memmap.offset r 0x1040)

let test_memmap_layout_disjoint () =
  let m = fresh () in
  let dram = Machine.dram_region m and iram = Machine.iram_region m in
  checkb "disjoint" true
    (Memmap.limit iram <= dram.Memmap.base || Memmap.limit dram <= iram.Memmap.base)

(* ------------------------- Clock / Energy ------------------------ *)

let test_clock_advance () =
  let c = Clock.create () in
  Clock.advance c 100.0;
  Clock.advance c 50.0;
  Alcotest.(check (float 1e-9)) "now" 150.0 (Clock.now c);
  Alcotest.(check (float 1e-9)) "elapsed" 50.0 (Clock.elapsed c ~since:100.0);
  let (), dt = Clock.timed c (fun () -> Clock.advance c 7.0) in
  Alcotest.(check (float 1e-9)) "timed" 7.0 dt

let test_energy_categories () =
  let e = Energy.create () in
  Energy.charge e ~category:"aes" 1.0;
  Energy.charge e ~category:"aes" 0.5;
  Energy.charge e ~category:"dma" 2.0;
  Alcotest.(check (float 1e-9)) "total" 3.5 (Energy.total e);
  Alcotest.(check (float 1e-9)) "aes" 1.5 (Energy.category e "aes");
  Alcotest.(check (float 1e-9)) "missing" 0.0 (Energy.category e "nope");
  let (), spent = Energy.metered e ~category:"aes" (fun () -> Energy.charge e ~category:"aes" 0.25) in
  Alcotest.(check (float 1e-9)) "metered" 0.25 spent

(* ------------------------------ DRAM ------------------------------ *)

let test_dram_read_write_uncached () =
  let m = fresh () in
  let addr = dram_base m + 0x1234 in
  Machine.write_uncached m addr (Bytes.of_string "hello");
  Alcotest.(check bytes) "readback" (Bytes.of_string "hello") (Machine.read_uncached m addr 5)

let test_dram_bounds () =
  let m = fresh () in
  let dram = Machine.dram m in
  Alcotest.check_raises "oob"
    (Invalid_argument
       (Printf.sprintf "Dram: access out of range 0x%x+%d" (Memmap.limit (Dram.region dram)) 1))
    (fun () -> ignore (Dram.read dram ~initiator:`Cpu (Memmap.limit (Dram.region dram)) 1))

let test_dram_remanence_full_survival () =
  let m = fresh () in
  Bytes_util.fill_pattern (Dram.raw (Machine.dram m)) (Bytes.of_string "PATTERNZ");
  Dram.set_powered (Machine.dram m) false;
  Dram.power_cycle (Machine.dram m) ~off_s:0.0;
  Dram.set_powered (Machine.dram m) true;
  checki "no decay at 0s"
    (Bytes.length (Dram.raw (Machine.dram m)) / 8)
    (Bytes_util.count_pattern (Dram.raw (Machine.dram m)) (Bytes.of_string "PATTERNZ"))

let test_dram_remanence_decay_monotonic () =
  let survival off_s =
    let m = fresh ~seed:(int_of_float (off_s *. 1000.0)) () in
    let pat = Bytes.of_string "PATTERNZ" in
    Bytes_util.fill_pattern (Dram.raw (Machine.dram m)) pat;
    Dram.set_powered (Machine.dram m) false;
    Dram.power_cycle (Machine.dram m) ~off_s;
    Dram.set_powered (Machine.dram m) true;
    float_of_int (Bytes_util.count_pattern (Dram.raw (Machine.dram m)) pat)
  in
  let s02 = survival 0.2 and s10 = survival 1.0 and s20 = survival 2.0 in
  checkb "0.2 > 1.0" true (s02 > s10);
  checkb "1.0 > 2.0" true (s10 > s20)

let test_dram_powered_off_is_typed () =
  let m = fresh () in
  let dram = Machine.dram m in
  let base = (Dram.region dram).Memmap.base in
  Dram.set_powered dram false;
  Alcotest.check_raises "read on dead rails" Dram.Powered_off (fun () ->
      ignore (Dram.read dram ~initiator:`Cpu base 16));
  Alcotest.check_raises "write on dead rails" Dram.Powered_off (fun () ->
      Dram.write dram ~initiator:`Cpu base (Bytes.make 16 'x'));
  Dram.set_powered dram true;
  ignore (Dram.read dram ~initiator:`Cpu base 16)

let test_dram_power_cycle_guards_still_powered () =
  let m = fresh () in
  Alcotest.check_raises "decay needs the rails down"
    (Invalid_argument "Dram.power_cycle: still powered (cells decay only without self-refresh)")
    (fun () -> Dram.power_cycle (Machine.dram m) ~off_s:1.0)

let test_dram_remanence_calibration () =
  Alcotest.(check (float 0.005)) "reflash point" (0.975 ** (1.0 /. 8.0))
    (Calib.dram_survival ~power_off_s:0.2);
  Alcotest.(check (float 0.02)) "2s point" (0.001 ** (1.0 /. 8.0))
    (Calib.dram_survival ~power_off_s:2.0)

(* ------------------------------ iRAM ------------------------------ *)

let test_iram_roundtrip () =
  let m = fresh () in
  let addr = iram_base m + 0x8000 in
  Machine.write m addr (Bytes.of_string "soc-data");
  Alcotest.(check bytes) "readback" (Bytes.of_string "soc-data") (Machine.read m addr 8)

let test_iram_no_bus_traffic () =
  let m = fresh () in
  let before, _, _ = Bus.stats (Machine.bus m) in
  Machine.write m (iram_base m + 0x9000) (Bytes.make 4096 'x');
  ignore (Machine.read m (iram_base m + 0x9000) 4096);
  let after, _, _ = Bus.stats (Machine.bus m) in
  checki "no transactions" before after

let test_iram_firmware_clear () =
  let m = fresh () in
  Machine.write m (iram_base m + 0x8000) (Bytes.of_string "secret");
  Sram.clear (Machine.iram m);
  checkb "zeroed" true (Bytes_util.is_zero (Sram.raw (Machine.iram m)))

let test_iram_firmware_region_crash () =
  let m = fresh () in
  checkb "ok before" true (Sram.firmware_ok (Machine.iram m));
  Machine.write m (iram_base m + 0x100) (Bytes.of_string "oops");
  checkb "crashed" false (Sram.firmware_ok (Machine.iram m))

(* iRAM and the §10 pinned memory are one SRAM model: the same access
   sequence costs the same simulated time and energy on either bank,
   charged to the bank's own category.  Only iRAM reserves firmware
   scratch (its low 64 KiB). *)
let test_sram_bank_parity () =
  let m = Machine.create ~seed:1 (Machine.future ~dram_size:(4 * Units.mib) ()) in
  let iram = Machine.iram m and pinned = Option.get (Machine.pinned m) in
  let energy = Machine.energy m in
  let run bank category =
    let base = (Sram.region bank).Memmap.base + 0x100 in
    let t0 = Machine.now m and e0 = Energy.category energy category in
    List.iter
      (fun len ->
        Machine.write m (base + len) (Bytes.make len 'x');
        ignore (Machine.read m (base + (2 * len)) len))
      [ 1; 31; 32; 33; 100; 4096 ];
    (Machine.now m -. t0, Energy.category energy category -. e0)
  in
  let iram_ns, iram_j = run iram "iram" in
  let pinned_ns, pinned_j = run pinned "pinned" in
  checkb "charged" true (iram_ns > 0.0 && iram_j > 0.0);
  Alcotest.(check (float 0.0)) "same clock ns" iram_ns pinned_ns;
  Alcotest.(check (float 0.0)) "same energy, own category" iram_j pinned_j;
  checkb "iram firmware crashed" false (Sram.firmware_ok iram);
  checkb "pinned reserves no firmware area" true (Sram.firmware_ok pinned)

(* ------------------------------ Bus ------------------------------- *)

let test_bus_monitor_sees_uncached () =
  let m = fresh () in
  let seen = ref [] in
  let detach = Bus.attach_monitor (Machine.bus m) (fun txn -> seen := txn :: !seen) in
  Machine.write_uncached m (dram_base m) (Bytes.of_string "leak");
  checkb "observed" true (List.length !seen > 0);
  let txn = List.hd !seen in
  checkb "payload" true (Bytes_util.contains txn.Bus.data (Bytes.of_string "leak"));
  detach ();
  let n = List.length !seen in
  Machine.write_uncached m (dram_base m) (Bytes.of_string "more");
  checki "detached" n (List.length !seen)

let test_bus_counts () =
  let m = fresh () in
  let t0, r0, w0 = Bus.stats (Machine.bus m) in
  Machine.write_uncached m (dram_base m) (Bytes.make 64 'a');
  ignore (Machine.read_uncached m (dram_base m) 64);
  let t1, r1, w1 = Bus.stats (Machine.bus m) in
  checkb "transactions" true (t1 > t0);
  checki "read bytes" 64 (r1 - r0);
  checki "write bytes" 64 (w1 - w0)

let test_bus_record_snapshots_data () =
  (* the recorded transaction must hold a defensive copy: mutating the
     initiator's buffer after [record] returns cannot rewrite history *)
  let m = fresh () in
  let seen = ref [] in
  let detach = Bus.attach_monitor (Machine.bus m) (fun txn -> seen := txn :: !seen) in
  let buf = Bytes.of_string "original" in
  Bus.record (Machine.bus m) ~initiator:`Cpu Bus.Write (dram_base m) buf;
  Bytes.fill buf 0 (Bytes.length buf) '\xff';
  detach ();
  (match !seen with
  | [ txn ] ->
      Alcotest.(check bytes) "snapshot unchanged" (Bytes.of_string "original") txn.Bus.data;
      checkb "not aliased" false (txn.Bus.data == buf)
  | _ -> Alcotest.fail "expected exactly one transaction")

(* ----------------------------- PL310 ------------------------------ *)

let test_l2_geometry () =
  let m = fresh () in
  let l2 = Machine.l2 m in
  checki "ways" 8 (Pl310.ways l2);
  checki "way size" (128 * Units.kib) (Pl310.way_size l2);
  checki "line" 32 (Pl310.line_size l2);
  checki "total" Units.mib (Pl310.size l2)

let test_l2_cached_read_write () =
  let m = fresh () in
  let addr = dram_base m + 0x5000 in
  Machine.write m addr (Bytes.of_string "cached line data");
  Alcotest.(check bytes) "hit" (Bytes.of_string "cached line data") (Machine.read m addr 16)

let test_l2_writeback_on_flush () =
  let m = fresh () in
  let addr = dram_base m + 0x6000 in
  Machine.write m addr (Bytes.of_string "dirty!!!");
  (* write-back: DRAM does not see it yet *)
  checkb "not in dram" false
    (Bytes_util.contains (Dram.raw (Machine.dram m)) (Bytes.of_string "dirty!!!"));
  Pl310.flush_masked (Machine.l2 m);
  checkb "in dram after flush" true
    (Bytes_util.contains (Dram.raw (Machine.dram m)) (Bytes.of_string "dirty!!!"))

let test_l2_eviction_writes_back () =
  let m = fresh () in
  let addr = dram_base m + 0x7000 in
  Machine.write m addr (Bytes.of_string "evictme!");
  (* storm over 2 MB with the same set alignment to force eviction *)
  for i = 1 to 16 do
    ignore (Machine.read m (addr + (i * 128 * Units.kib)) 32)
  done;
  checkb "written back" true
    (Bytes_util.contains (Dram.raw (Machine.dram m)) (Bytes.of_string "evictme!"))

let test_l2_lockdown_blocks_allocation () =
  let m = fresh () in
  let l2 = Machine.l2 m in
  Pl310.set_lockdown l2 0xff;
  (* all ways locked *)
  let addr = dram_base m + 0x8000 in
  ignore (Machine.read m addr 32);
  checkb "not resident" false (Pl310.resident l2 addr);
  checkb "bypass counted" true ((Pl310.stats l2).Pl310.bypasses > 0);
  (* reads still work, straight from DRAM *)
  Machine.write_uncached m addr (Bytes.of_string "via-dram");
  Alcotest.(check bytes) "uncached value" (Bytes.of_string "via-dram") (Machine.read m addr 8)

let test_l2_warming_targets_single_way () =
  let m = fresh () in
  let l2 = Machine.l2 m in
  (* enable only way 3 *)
  Pl310.set_lockdown l2 (0xff lxor (1 lsl 3));
  let base = dram_base m + (2 * Units.mib) in
  for i = 0 to 63 do
    Machine.write m (base + (i * 32)) (Bytes.make 32 '\xff')
  done;
  for i = 0 to 63 do
    Alcotest.(check (option int)) "in way 3" (Some 3) (Pl310.lookup l2 (base + (i * 32)))
  done

let test_l2_locked_way_never_written_back () =
  (* the paper's §4.2 validation: data in a locked way must never
     appear in DRAM, even under cache pressure and masked flushes *)
  let m = fresh () in
  let l2 = Machine.l2 m in
  let base = dram_base m + (2 * Units.mib) in
  Pl310.set_lockdown l2 (0xff lxor 1);
  Machine.write m base (Bytes.of_string "LOCKEDSECRET0000");
  Pl310.set_lockdown l2 1;
  Pl310.set_flush_mask l2 1;
  (* pressure: sweep 4 MB *)
  for i = 0 to (2 * Units.mib / 32) - 1 do
    ignore (Machine.read m (dram_base m + (i * 32)) 8)
  done;
  Pl310.flush_masked l2;
  checkb "never in DRAM" false
    (Bytes_util.contains (Dram.raw (Machine.dram m)) (Bytes.of_string "LOCKEDSECRET0000"));
  checkb "still resident" true (Pl310.resident l2 base);
  Alcotest.(check bytes) "still readable" (Bytes.of_string "LOCKEDSECRET0000")
    (Machine.read m base 16)

let test_l2_stock_flush_leaks_locked_ways () =
  (* the dangerous stock behaviour the paper discovered: a full flush
     unlocks locked ways and writes their dirty data to DRAM *)
  let m = fresh () in
  let l2 = Machine.l2 m in
  let base = dram_base m + (2 * Units.mib) in
  Pl310.set_lockdown l2 (0xff lxor 1);
  Machine.write m base (Bytes.of_string "LOCKEDSECRET0000");
  Pl310.set_lockdown l2 1;
  Pl310.set_flush_mask l2 1;
  Pl310.flush_all_stock l2;
  checkb "leaked to DRAM" true
    (Bytes_util.contains (Dram.raw (Machine.dram m)) (Bytes.of_string "LOCKEDSECRET0000"));
  checki "lockdown dropped" 0 (Pl310.lockdown l2)

let test_l2_invalidate_range_skips_locked () =
  let m = fresh () in
  let l2 = Machine.l2 m in
  let base = dram_base m + (2 * Units.mib) in
  Pl310.set_lockdown l2 (0xff lxor 1);
  Machine.write m base (Bytes.of_string "keepme!!");
  Pl310.set_lockdown l2 1;
  Pl310.set_flush_mask l2 1;
  Pl310.invalidate_range l2 base 32;
  checkb "locked line survives invalidate" true (Pl310.resident l2 base)

let test_l2_reset_clears_everything () =
  let m = fresh () in
  let l2 = Machine.l2 m in
  Machine.write m (dram_base m) (Bytes.of_string "cachedat");
  Pl310.set_lockdown l2 3;
  Pl310.set_flush_mask l2 3;
  Pl310.reset l2;
  checkb "not resident" false (Pl310.resident l2 (dram_base m));
  checki "lockdown" 0 (Pl310.lockdown l2);
  checki "flush mask" 0 (Pl310.flush_mask l2);
  checkb "no line data" true
    (match Pl310.peek_line l2 (dram_base m) with None -> true | Some _ -> false)

let test_l2_hit_rate_counting () =
  let m = fresh () in
  let l2 = Machine.l2 m in
  let addr = dram_base m in
  ignore (Machine.read m addr 32);
  (* miss *)
  for _ = 1 to 9 do
    ignore (Machine.read m addr 32) (* hits *)
  done;
  Alcotest.(check (float 0.01)) "90% hits" 0.9 (Pl310.hit_rate l2)

let test_l2_cross_line_access () =
  let m = fresh () in
  let addr = dram_base m + 0x5000 + 30 in
  (* spans two lines *)
  Machine.write m addr (Bytes.of_string "span");
  Alcotest.(check bytes) "cross-line" (Bytes.of_string "span") (Machine.read m addr 4)

let test_l2_secure_world_needed_for_lockdown () =
  (* Trustzone gate is enforced by the Locked_cache driver, not the raw
     controller; here we check the gate itself *)
  let m = fresh () in
  let tz = Machine.trustzone m in
  Alcotest.check_raises "normal world denied"
    (Trustzone.Permission_denied "PL310 lockdown register") (fun () ->
      Trustzone.check_coprocessor_access tz);
  Trustzone.with_secure_world tz (fun () -> Trustzone.check_coprocessor_access tz)

(* ------------------------------- DMA ------------------------------ *)

let test_dma_reads_dram_not_cache () =
  let m = fresh () in
  let addr = dram_base m + 0x9000 in
  Machine.write_uncached m addr (Bytes.of_string "olddata!");
  (* dirty the cache with new data, not yet written back *)
  Machine.write m addr (Bytes.of_string "newdata!");
  match Dma.read (Machine.dma m) ~addr ~len:8 with
  | Ok b -> Alcotest.(check bytes) "stale dram view" (Bytes.of_string "olddata!") b
  | Error _ -> Alcotest.fail "dma denied"

let test_dma_write_then_cpu_stale_until_invalidate () =
  let m = fresh () in
  let addr = dram_base m + 0xa000 in
  Machine.write m addr (Bytes.of_string "cpu-data");
  Pl310.flush_masked (Machine.l2 m);
  ignore (Machine.read m addr 8);
  (* cache it *)
  (match Dma.write (Machine.dma m) ~addr (Bytes.of_string "dma-data") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "dma denied");
  (* CPU still sees the stale cached copy... *)
  Alcotest.(check bytes) "stale" (Bytes.of_string "cpu-data") (Machine.read m addr 8);
  (* ...until software invalidates (the coherence contract) *)
  Pl310.invalidate_range (Machine.l2 m) addr 8;
  Alcotest.(check bytes) "fresh" (Bytes.of_string "dma-data") (Machine.read m addr 8)

let test_dma_trustzone_denial () =
  let m = fresh () in
  let tz = Machine.trustzone m in
  let region = Memmap.region ~base:(dram_base m + 0x10000) ~size:0x1000 in
  Trustzone.with_secure_world tz (fun () -> Trustzone.deny_dma tz region);
  (match Dma.read (Machine.dma m) ~addr:(dram_base m + 0x10000) ~len:16 with
  | Error Dma.Denied -> ()
  | _ -> Alcotest.fail "should be denied");
  (* outside the denied window it still works *)
  match Dma.read (Machine.dma m) ~addr:(dram_base m) ~len:16 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "should be allowed"

let test_dma_iram_access () =
  let m = fresh () in
  Machine.write m (iram_base m + 0x8000) (Bytes.of_string "iramsec!");
  (match Dma.read (Machine.dma m) ~addr:(iram_base m + 0x8000) ~len:8 with
  | Ok b -> Alcotest.(check bytes) "iram readable by dma" (Bytes.of_string "iramsec!") b
  | Error _ -> Alcotest.fail "unexpected denial");
  (* protect it, as Sentry does *)
  let tz = Machine.trustzone m in
  Trustzone.with_secure_world tz (fun () -> Trustzone.deny_dma tz (Machine.iram_region m));
  match Dma.read (Machine.dma m) ~addr:(iram_base m + 0x8000) ~len:8 with
  | Error Dma.Denied -> ()
  | _ -> Alcotest.fail "should be denied after protection"

let test_dma_bad_address () =
  let m = fresh () in
  match Dma.read (Machine.dma m) ~addr:0x100 ~len:8 with
  | Error Dma.Bad_address -> ()
  | _ -> Alcotest.fail "expected bad address"

(* --------------------------- TrustZone ---------------------------- *)

let test_trustzone_world_switch () =
  let m = fresh () in
  let tz = Machine.trustzone m in
  checkb "starts normal" true (Trustzone.world tz = Trustzone.Normal);
  Trustzone.with_secure_world tz (fun () ->
      checkb "secure inside" true (Trustzone.world tz = Trustzone.Secure));
  checkb "restored" true (Trustzone.world tz = Trustzone.Normal)

let test_trustzone_world_restored_on_exception () =
  let m = fresh () in
  let tz = Machine.trustzone m in
  (try Trustzone.with_secure_world tz (fun () -> failwith "boom") with Failure _ -> ());
  checkb "restored after raise" true (Trustzone.world tz = Trustzone.Normal)

let test_trustzone_fuse_gate () =
  let m = fresh () in
  let tz = Machine.trustzone m in
  Alcotest.check_raises "fuse from normal world"
    (Trustzone.Permission_denied "Trustzone.read_fuse") (fun () ->
      ignore (Trustzone.read_fuse tz));
  let secret = Trustzone.with_secure_world tz (fun () -> Trustzone.read_fuse tz) in
  checki "fuse length" Fuse.secret_len (Bytes.length secret);
  let again = Trustzone.with_secure_world tz (fun () -> Trustzone.read_fuse tz) in
  Alcotest.(check bytes) "stable" secret again

let test_fuse_jtag () =
  let m = fresh () in
  let fuse = Machine.fuse m in
  checkb "jtag initially on" true (Fuse.jtag_enabled fuse);
  Fuse.burn_jtag_fuse fuse;
  checkb "jtag off" false (Fuse.jtag_enabled fuse)

(* ------------------------------ CPU -------------------------------- *)

let test_cpu_regs_and_zero () =
  let m = fresh () in
  let cpu = Machine.cpu m in
  Cpu.load_regs cpu (Bytes.of_string "0123456789abcdef");
  checkb "loaded" true
    (Bytes_util.contains (Cpu.regs_snapshot cpu) (Bytes.of_string "0123456789abcdef"));
  Cpu.zero_regs cpu;
  checkb "zeroed" true (Bytes_util.is_zero (Cpu.regs_snapshot cpu))

let test_cpu_irq_bracket () =
  let m = fresh () in
  let cpu = Machine.cpu m in
  checkb "irqs on" true (Cpu.irqs_enabled cpu);
  Cpu.with_irqs_off cpu (fun () ->
      checkb "irqs off inside" false (Cpu.irqs_enabled cpu);
      Cpu.load_regs cpu (Bytes.of_string "sensitive-state!"));
  checkb "irqs back on" true (Cpu.irqs_enabled cpu);
  checkb "regs zeroed on exit" true (Bytes_util.is_zero (Cpu.regs_snapshot cpu))

let test_cpu_irq_window_measured () =
  let m = fresh () in
  let cpu = Machine.cpu m in
  Cpu.with_irqs_off cpu (fun () -> Machine.compute m ~ns:(100.0 *. Units.us));
  Alcotest.(check (float 1.0)) "window" (100.0 *. Units.us) (Cpu.max_irq_window_ns cpu)

(* ----------------------------- Machine ----------------------------- *)

let test_machine_bus_fault () =
  let m = fresh () in
  Alcotest.check_raises "unmapped" (Machine.Bus_fault 0x10) (fun () ->
      ignore (Machine.read m 0x10 1))

let test_machine_reboot_warm_preserves_iram () =
  let m = fresh () in
  Machine.write m (iram_base m + 0x8000) (Bytes.of_string "staying!");
  Machine.reboot m Machine.Warm;
  Alcotest.(check bytes) "iram intact" (Bytes.of_string "staying!")
    (Machine.read m (iram_base m + 0x8000) 8)

let test_machine_reboot_reflash_clears_iram () =
  let m = fresh () in
  Machine.write m (iram_base m + 0x8000) (Bytes.of_string "leaving!");
  Machine.reboot m Machine.Reflash;
  checkb "iram zeroed" true (Bytes_util.is_zero (Sram.raw (Machine.iram m)))

let test_machine_reboot_resets_cache () =
  let m = fresh () in
  Machine.write m (dram_base m) (Bytes.of_string "dirtyline");
  Machine.reboot m Machine.Warm;
  checkb "cache invalidated without writeback" false
    (Bytes_util.contains (Dram.raw (Machine.dram m)) (Bytes.of_string "dirtyline"))

let test_machine_write_raw_coherent () =
  let m = fresh () in
  let addr = dram_base m + 0xb000 in
  Machine.write m addr (Bytes.of_string "cached!!");
  Machine.write_raw m addr (Bytes.of_string "rawdata!");
  Alcotest.(check bytes) "cpu sees raw write" (Bytes.of_string "rawdata!") (Machine.read m addr 8)

let test_machine_clock_monotonic () =
  let m = fresh () in
  let t0 = Machine.now m in
  ignore (Machine.read m (dram_base m) 64);
  checkb "time advanced" true (Machine.now m > t0)

let test_nexus_config () =
  let m = Machine.create (Machine.nexus4 ~dram_size:(4 * Units.mib) ()) in
  checkb "no cache locking" false (Machine.config m).Machine.cache_locking_available;
  checkb "has accel" true (Machine.config m).Machine.has_crypto_accel

(* --------------------------- properties --------------------------- *)

let qcheck_tests =
  let open QCheck in
  let machine = fresh ~dram_size:(2 * Units.mib) () in
  let base = dram_base machine in
  [
    (* Transparency oracle: under cached reads/writes, masked flushes
       and arbitrary lockdown changes, the cache must be invisible --
       every read returns exactly what a plain byte array would. *)
    Test.make ~name:"cache is transparent under any op sequence" ~count:25
      (list_of_size Gen.(5 -- 60)
         (triple (int_range 0 ((256 * 1024) - 64))
            (oneofl [ `Write; `Read; `Flush; `Lockdown 0; `Lockdown 3; `Lockdown 0x7f ])
            (string_of_size Gen.(1 -- 48))))
      (fun ops ->
        let m = fresh ~dram_size:(2 * Units.mib) ~seed:4242 () in
        let b = dram_base m in
        let model = Bytes.make (256 * 1024) '\000' in
        (* bring model and memory in sync *)
        Machine.write m b (Bytes.copy model);
        List.for_all
          (fun (off, op, payload) ->
            (match op with
            | `Write ->
                let p = Bytes.of_string payload in
                Machine.write m (b + off) p;
                Bytes.blit p 0 model off (Bytes.length p)
            | `Read -> ()
            | `Flush -> Pl310.flush_masked (Machine.l2 m)
            | `Lockdown mask -> Pl310.set_lockdown (Machine.l2 m) mask);
            let len = min 48 ((256 * 1024) - off) in
            Bytes.equal (Machine.read m (b + off) len) (Bytes.sub model off len))
          ops);
    Test.make ~name:"cached write/read roundtrip at any offset" ~count:200
      (pair (int_range 0 (Units.mib - 64)) (string_of_size Gen.(1 -- 64)))
      (fun (off, s) ->
        let b = Bytes.of_string s in
        Machine.write machine (base + off) b;
        Bytes.equal (Machine.read machine (base + off) (Bytes.length b)) b);
    Test.make ~name:"uncached matches cached after flush" ~count:50
      (int_range 0 (Units.mib - 64))
      (fun off ->
        let b = Bytes.of_string "COHERENT" in
        Machine.write machine (base + off) b;
        Pl310.flush_masked (Machine.l2 machine);
        Bytes.equal (Machine.read_uncached machine (base + off) 8) b);
    Test.make ~name:"set/tag decomposition is injective per line" ~count:200
      (pair (int_range 0 0xffff) (int_range 0 0xffff))
      (fun (a, b) ->
        let l2 = Machine.l2 machine in
        let a = base + (a * 32) and b = base + (b * 32) in
        a = b
        || Pl310.set_of_addr l2 a <> Pl310.set_of_addr l2 b
        || Pl310.tag_of_addr l2 a <> Pl310.tag_of_addr l2 b);
  ]

let () =
  Alcotest.run "sentry_soc"
    [
      ( "memmap",
        [
          Alcotest.test_case "regions" `Quick test_memmap_regions;
          Alcotest.test_case "layout disjoint" `Quick test_memmap_layout_disjoint;
        ] );
      ( "clock-energy",
        [
          Alcotest.test_case "clock" `Quick test_clock_advance;
          Alcotest.test_case "energy" `Quick test_energy_categories;
        ] );
      ( "dram",
        [
          Alcotest.test_case "rw uncached" `Quick test_dram_read_write_uncached;
          Alcotest.test_case "bounds" `Quick test_dram_bounds;
          Alcotest.test_case "no decay at 0s" `Quick test_dram_remanence_full_survival;
          Alcotest.test_case "decay monotonic" `Quick test_dram_remanence_decay_monotonic;
          Alcotest.test_case "calibration" `Quick test_dram_remanence_calibration;
          Alcotest.test_case "powered-off is typed" `Quick test_dram_powered_off_is_typed;
          Alcotest.test_case "power_cycle guard" `Quick test_dram_power_cycle_guards_still_powered;
        ] );
      ( "iram",
        [
          Alcotest.test_case "roundtrip" `Quick test_iram_roundtrip;
          Alcotest.test_case "no bus traffic" `Quick test_iram_no_bus_traffic;
          Alcotest.test_case "firmware clear" `Quick test_iram_firmware_clear;
          Alcotest.test_case "firmware region crash" `Quick test_iram_firmware_region_crash;
          Alcotest.test_case "iram and pinned bank parity" `Quick test_sram_bank_parity;
        ] );
      ( "bus",
        [
          Alcotest.test_case "monitor" `Quick test_bus_monitor_sees_uncached;
          Alcotest.test_case "counters" `Quick test_bus_counts;
          Alcotest.test_case "record snapshots data" `Quick test_bus_record_snapshots_data;
        ] );
      ( "pl310",
        [
          Alcotest.test_case "geometry" `Quick test_l2_geometry;
          Alcotest.test_case "cached rw" `Quick test_l2_cached_read_write;
          Alcotest.test_case "writeback on flush" `Quick test_l2_writeback_on_flush;
          Alcotest.test_case "eviction writes back" `Quick test_l2_eviction_writes_back;
          Alcotest.test_case "lockdown blocks allocation" `Quick test_l2_lockdown_blocks_allocation;
          Alcotest.test_case "warming targets one way" `Quick test_l2_warming_targets_single_way;
          Alcotest.test_case "locked way never written back" `Quick
            test_l2_locked_way_never_written_back;
          Alcotest.test_case "stock flush leaks locked ways" `Quick
            test_l2_stock_flush_leaks_locked_ways;
          Alcotest.test_case "invalidate skips locked" `Quick test_l2_invalidate_range_skips_locked;
          Alcotest.test_case "reset clears everything" `Quick test_l2_reset_clears_everything;
          Alcotest.test_case "hit rate" `Quick test_l2_hit_rate_counting;
          Alcotest.test_case "cross-line access" `Quick test_l2_cross_line_access;
          Alcotest.test_case "secure-world lockdown gate" `Quick
            test_l2_secure_world_needed_for_lockdown;
        ] );
      ( "dma",
        [
          Alcotest.test_case "reads DRAM not cache" `Quick test_dma_reads_dram_not_cache;
          Alcotest.test_case "write + invalidate coherence" `Quick
            test_dma_write_then_cpu_stale_until_invalidate;
          Alcotest.test_case "trustzone denial" `Quick test_dma_trustzone_denial;
          Alcotest.test_case "iram access + protection" `Quick test_dma_iram_access;
          Alcotest.test_case "bad address" `Quick test_dma_bad_address;
        ] );
      ( "trustzone",
        [
          Alcotest.test_case "world switch" `Quick test_trustzone_world_switch;
          Alcotest.test_case "restored on exception" `Quick
            test_trustzone_world_restored_on_exception;
          Alcotest.test_case "fuse gate" `Quick test_trustzone_fuse_gate;
          Alcotest.test_case "jtag fuse" `Quick test_fuse_jtag;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "regs and zero" `Quick test_cpu_regs_and_zero;
          Alcotest.test_case "irq bracket" `Quick test_cpu_irq_bracket;
          Alcotest.test_case "irq window" `Quick test_cpu_irq_window_measured;
        ] );
      ( "machine",
        [
          Alcotest.test_case "bus fault" `Quick test_machine_bus_fault;
          Alcotest.test_case "warm reboot keeps iram" `Quick test_machine_reboot_warm_preserves_iram;
          Alcotest.test_case "reflash clears iram" `Quick test_machine_reboot_reflash_clears_iram;
          Alcotest.test_case "reboot resets cache" `Quick test_machine_reboot_resets_cache;
          Alcotest.test_case "write_raw coherent" `Quick test_machine_write_raw_coherent;
          Alcotest.test_case "clock monotonic" `Quick test_machine_clock_monotonic;
          Alcotest.test_case "nexus config" `Quick test_nexus_config;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
