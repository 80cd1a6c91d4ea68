open Sentry_util
open Sentry_soc
open Sentry_kernel

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_bytes = Alcotest.(check bytes)

let boot ?(dram_size = 8 * Units.mib) ?(seed = 1) () =
  let machine = Machine.create ~seed (Machine.tegra3 ~dram_size ()) in
  let dram = Machine.dram_region machine in
  let region =
    Memmap.region ~base:(dram.Memmap.base + Units.mib) ~size:(dram_size - (2 * Units.mib))
  in
  let frames = Frame_alloc.create machine ~region in
  (machine, frames)

(* Distinct pids, as a [System]'s pid space would hand out. *)
let last_pid = ref 0

let make_proc machine frames ~bytes =
  let aspace = Address_space.create machine ~frames in
  ignore (Address_space.map_region aspace ~name:"main" ~kind:Address_space.Normal ~bytes);
  incr last_pid;
  Process.create ~pid:!last_pid ~name:"test" ~aspace ~kstack:(Frame_alloc.alloc frames) ()

(* ------------------------------ Page ------------------------------ *)

let test_page_helpers () =
  checki "align down" 0x1000 (Page.align_down 0x1fff);
  checki "align up" 0x2000 (Page.align_up 0x1001);
  checki "align up exact" 0x1000 (Page.align_up 0x1000);
  checkb "aligned" true (Page.is_aligned 0x3000);
  checkb "unaligned" false (Page.is_aligned 0x3001);
  checki "vpn" 3 (Page.vpn_of 0x3fff);
  checki "addr of vpn" 0x3000 (Page.addr_of_vpn 3);
  checki "offset" 0xfff (Page.offset_in_page 0x3fff);
  checki "count" 2 (Page.count_of_bytes 4097);
  checki "count exact" 1 (Page.count_of_bytes 4096);
  checki "count zero" 0 (Page.count_of_bytes 0)

(* --------------------------- Frame_alloc -------------------------- *)

let test_frame_alloc_basic () =
  let _, frames = boot () in
  let total = Frame_alloc.total_frames frames in
  let f1 = Frame_alloc.alloc frames in
  let f2 = Frame_alloc.alloc frames in
  checkb "aligned" true (Page.is_aligned f1 && Page.is_aligned f2);
  checkb "distinct" true (f1 <> f2);
  checki "allocated" 2 (Frame_alloc.allocated_frames frames);
  checki "free" (total - 2) (Frame_alloc.free_frames frames)

let test_frame_alloc_free_goes_dirty () =
  let _, frames = boot () in
  let f = Frame_alloc.alloc frames in
  Frame_alloc.free frames f;
  checki "dirty" 1 (Frame_alloc.dirty_frames frames)

let test_frame_alloc_dirty_reuse_is_zeroed () =
  let machine, frames = boot () in
  (* drain the free list *)
  let all = ref [] in
  (try
     while true do
       all := Frame_alloc.alloc frames :: !all
     done
   with Frame_alloc.Out_of_memory -> ());
  let victim = List.hd !all in
  Machine.write_uncached machine victim (Bytes.of_string "sensitive");
  Frame_alloc.free frames victim;
  let reused = Frame_alloc.alloc frames in
  checki "same frame" victim reused;
  checkb "zeroed on demand" true
    (Bytes_util.is_zero (Machine.read_uncached machine reused 4096))

let test_frame_alloc_oom () =
  let _, frames = boot () in
  (try
     while true do
       ignore (Frame_alloc.alloc frames)
     done
   with Frame_alloc.Out_of_memory -> ());
  Alcotest.check_raises "oom" Frame_alloc.Out_of_memory (fun () ->
      ignore (Frame_alloc.alloc frames))

(* --------------------------- Page_table --------------------------- *)

let test_page_table_basics () =
  let t = Page_table.create () in
  let pte = Page_table.make_pte ~frame:0x8000_0000 in
  Page_table.set t ~vpn:5 pte;
  checkb "found" true (Page_table.find t ~vpn:5 = Some pte);
  checkb "missing" true (Page_table.find t ~vpn:6 = None);
  checki "count" 1 (Page_table.page_count t);
  Page_table.remove t ~vpn:5;
  checki "removed" 0 (Page_table.page_count t)

let test_page_table_clear_young () =
  let t = Page_table.create () in
  for vpn = 0 to 9 do
    Page_table.set t ~vpn (Page_table.make_pte ~frame:(Page.addr_of_vpn vpn))
  done;
  Page_table.clear_young_bits t;
  Page_table.iter t (fun _ pte -> checkb "young cleared" false pte.Page_table.young)

(* ------------------------- Address_space -------------------------- *)

let test_aspace_map_region () =
  let machine, frames = boot () in
  let aspace = Address_space.create machine ~frames in
  let r = Address_space.map_region aspace ~name:"heap" ~kind:Address_space.Normal ~bytes:10000 in
  checki "pages" 3 r.Address_space.npages;
  checki "ptes" 3 (List.length (Address_space.region_ptes aspace r));
  checki "total bytes" (3 * 4096) (Address_space.total_bytes aspace);
  checkb "found" true (Address_space.find_region aspace ~name:"heap" <> None)

let test_aspace_regions_disjoint () =
  let machine, frames = boot () in
  let aspace = Address_space.create machine ~frames in
  let a = Address_space.map_region aspace ~name:"a" ~kind:Address_space.Normal ~bytes:8192 in
  let b = Address_space.map_region aspace ~name:"b" ~kind:Address_space.Normal ~bytes:8192 in
  checkb "disjoint va" true
    (a.Address_space.vstart + (a.Address_space.npages * Page.size) <= b.Address_space.vstart)

let test_aspace_share_region () =
  let machine, frames = boot () in
  let a1 = Address_space.create machine ~frames in
  let a2 = Address_space.create machine ~frames in
  let r = Address_space.map_region a1 ~name:"shm" ~kind:(Address_space.Shared "g") ~bytes:4096 in
  Address_space.share_region a2 ~from_space:a1 r;
  let pte1 = List.hd (Address_space.region_ptes a1 r) |> snd in
  let pte2 = List.hd (Address_space.region_ptes a2 r) |> snd in
  checkb "same pte object" true (pte1 == pte2)

(* [iter_region_ptes] visits exactly [region_ptes]'s pairs, in order,
   the PTEs themselves (not copies), a shared region's included. *)
let test_aspace_iter_region_ptes () =
  let machine, frames = boot () in
  let a1 = Address_space.create machine ~frames in
  let a2 = Address_space.create machine ~frames in
  let heap = Address_space.map_region a1 ~name:"heap" ~kind:Address_space.Normal ~bytes:20000 in
  let shm = Address_space.map_region a1 ~name:"shm" ~kind:(Address_space.Shared "g") ~bytes:8192 in
  Address_space.share_region a2 ~from_space:a1 shm;
  List.iter
    (fun (aspace, r) ->
      let seen = ref [] in
      Address_space.iter_region_ptes aspace r (fun vpn pte -> seen := (vpn, pte) :: !seen);
      let want = Address_space.region_ptes aspace r and got = List.rev !seen in
      Alcotest.(check (list int)) "vpns in page order" (List.map fst want) (List.map fst got);
      checkb "same pte objects" true (List.for_all2 (fun (_, a) (_, b) -> a == b) want got))
    [ (a1, heap); (a1, shm); (a2, shm) ]

let test_aspace_unmap_frees () =
  let machine, frames = boot () in
  let aspace = Address_space.create machine ~frames in
  let before = Frame_alloc.allocated_frames frames in
  let r = Address_space.map_region aspace ~name:"tmp" ~kind:Address_space.Normal ~bytes:16384 in
  Address_space.unmap_region aspace r;
  checki "frames back" before (Frame_alloc.allocated_frames frames);
  checki "dirty" 4 (Frame_alloc.dirty_frames frames)

(* -------------------------------- Vm ------------------------------ *)

let test_vm_read_write () =
  let machine, frames = boot () in
  let vm = Vm.create machine in
  let proc = make_proc machine frames ~bytes:16384 in
  let r = Option.get (Address_space.find_region proc.Process.aspace ~name:"main") in
  let v = r.Address_space.vstart in
  Vm.write vm proc ~vaddr:(v + 100) (Bytes.of_string "user data");
  check_bytes "roundtrip" (Bytes.of_string "user data") (Vm.read vm proc ~vaddr:(v + 100) ~len:9)

let test_vm_cross_page_access () =
  let machine, frames = boot () in
  let vm = Vm.create machine in
  let proc = make_proc machine frames ~bytes:16384 in
  let r = Option.get (Address_space.find_region proc.Process.aspace ~name:"main") in
  let v = r.Address_space.vstart + 4090 in
  Vm.write vm proc ~vaddr:v (Bytes.of_string "spans two pages!");
  check_bytes "cross-page" (Bytes.of_string "spans two pages!") (Vm.read vm proc ~vaddr:v ~len:16)

let test_vm_segfault () =
  let machine, frames = boot () in
  let vm = Vm.create machine in
  let proc = make_proc machine frames ~bytes:4096 in
  Alcotest.check_raises "segv" (Vm.Segfault { pid = proc.Process.pid; vaddr = 0xdead000 })
    (fun () -> ignore (Vm.read vm proc ~vaddr:0xdead000 ~len:1))

let test_vm_young_fault_fires_once () =
  let machine, frames = boot () in
  let vm = Vm.create machine in
  let proc = make_proc machine frames ~bytes:4096 in
  let r = Option.get (Address_space.find_region proc.Process.aspace ~name:"main") in
  let pte = List.hd (Address_space.region_ptes proc.Process.aspace r) |> snd in
  pte.Page_table.young <- false;
  let fired = ref 0 in
  Vm.set_fault_handler vm (fun _ ~vaddr:_ p ->
      incr fired;
      p.Page_table.young <- true);
  Vm.touch vm proc ~vaddr:r.Address_space.vstart;
  Vm.touch vm proc ~vaddr:r.Address_space.vstart;
  checki "one fault" 1 !fired;
  checki "proc fault count" 1 proc.Process.faults

let test_vm_fault_charges_kernel_time () =
  let machine, frames = boot () in
  let vm = Vm.create machine in
  let proc = make_proc machine frames ~bytes:4096 in
  let r = Option.get (Address_space.find_region proc.Process.aspace ~name:"main") in
  let pte = List.hd (Address_space.region_ptes proc.Process.aspace r) |> snd in
  pte.Page_table.young <- false;
  Vm.touch vm proc ~vaddr:r.Address_space.vstart;
  checkb "kernel time" true (proc.Process.kernel_time_ns >= Calib.page_fault_ns)

let test_vm_unresolved_fault_is_segfault () =
  let machine, frames = boot () in
  let vm = Vm.create machine in
  let proc = make_proc machine frames ~bytes:4096 in
  let r = Option.get (Address_space.find_region proc.Process.aspace ~name:"main") in
  let pte = List.hd (Address_space.region_ptes proc.Process.aspace r) |> snd in
  pte.Page_table.present <- false;
  (* default handler sets young but cannot make it present *)
  Alcotest.check_raises "segv"
    (Vm.Segfault { pid = proc.Process.pid; vaddr = r.Address_space.vstart }) (fun () ->
      Vm.touch vm proc ~vaddr:r.Address_space.vstart)

(* ------------------------------ Sched ------------------------------ *)

let test_sched_round_robin () =
  let machine, frames = boot () in
  let sched = Sched.create machine in
  let p1 = make_proc machine frames ~bytes:4096 in
  let p2 = make_proc machine frames ~bytes:4096 in
  Sched.admit sched p1;
  Sched.admit sched p2;
  checkb "p1 first" true (Sched.context_switch sched = Some p1);
  checkb "p2 next" true (Sched.context_switch sched = Some p2);
  checkb "p1 again" true (Sched.context_switch sched = Some p1)

let test_sched_unschedulable_queue () =
  let machine, frames = boot () in
  let sched = Sched.create machine in
  let p1 = make_proc machine frames ~bytes:4096 in
  let p2 = make_proc machine frames ~bytes:4096 in
  Sched.admit sched p1;
  Sched.admit sched p2;
  Sched.make_unschedulable sched p1;
  checkb "locked state" true (p1.Process.state = Process.Locked_out);
  checkb "only p2 runs" true (Sched.context_switch sched = Some p2);
  checkb "p2 again" true (Sched.context_switch sched = Some p2);
  Sched.make_schedulable sched p1;
  checkb "runnable again" true (p1.Process.state = Process.Runnable);
  checkb "p1 back in rotation" true
    (let a = Sched.context_switch sched and b = Sched.context_switch sched in
     a = Some p1 || b = Some p1)

let test_sched_spills_registers () =
  let machine, frames = boot () in
  let sched = Sched.create machine in
  let p1 = make_proc machine frames ~bytes:4096 in
  Sched.admit sched p1;
  ignore (Sched.context_switch sched);
  (* p1 current *)
  Cpu.load_regs (Machine.cpu machine) ~taint:Taint.Public (Bytes.of_string "REGISTER-SECRETS");
  ignore (Sched.context_switch sched);
  checkb "spilled to kstack" true
    (Bytes_util.contains
       (Machine.read_uncached machine p1.Process.kstack 64)
       (Bytes.of_string "REGISTER-SECRETS"));
  let _, spills = Sched.stats sched in
  checkb "spill counted" true (spills >= 1)

let test_sched_masked_when_irqs_off () =
  let machine, frames = boot () in
  let sched = Sched.create machine in
  let p1 = make_proc machine frames ~bytes:4096 in
  Sched.admit sched p1;
  Cpu.with_irqs_off (Machine.cpu machine) (fun () ->
      checkb "no switch" true (Sched.context_switch sched = None));
  checkb "switch after" true (Sched.context_switch sched = Some p1)

(* ------------------------------ Zerod ------------------------------ *)

let test_zerod_drains_and_zeroes () =
  let machine, frames = boot () in
  let zerod = Zerod.create machine ~frames in
  let f = Frame_alloc.alloc frames in
  Machine.write_uncached machine f (Bytes.of_string "leftover secret data");
  Frame_alloc.free frames f;
  checki "one dirty" 1 (Frame_alloc.dirty_frames frames);
  checki "drained" 1 (Zerod.drain zerod);
  checki "none dirty" 0 (Frame_alloc.dirty_frames frames);
  checkb "zeroed" true (Bytes_util.is_zero (Machine.read_uncached machine f 4096));
  checki "empty drain" 0 (Zerod.drain zerod)

let test_zerod_rate_calibration () =
  let machine, frames = boot () in
  let zerod = Zerod.create machine ~frames in
  let fs = List.init 64 (fun _ -> Frame_alloc.alloc frames) in
  List.iter (Frame_alloc.free frames) fs;
  let t0 = Machine.now machine in
  ignore (Zerod.drain zerod);
  let gb_s =
    float_of_int (64 * 4096) /. float_of_int Units.gib /. ((Machine.now machine -. t0) /. Units.s)
  in
  Alcotest.(check (float 0.1)) "4 GB/s" 4.014 gb_s

(* ----------------------------- Blockio ---------------------------- *)

let test_block_dev_roundtrip () =
  let machine, _ = boot () in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:Units.mib in
  let t = Block_dev.target dev in
  Blockio.write t ~off:1000 (Bytes.of_string "device data");
  check_bytes "roundtrip" (Bytes.of_string "device data") (Blockio.read t ~off:1000 ~len:11)

let test_block_dev_bounds () =
  let machine, _ = boot () in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:4096 in
  let t = Block_dev.target dev in
  Alcotest.check_raises "oob"
    (Invalid_argument "blockdev: I/O out of range (off=4090 len=10 size=4096)") (fun () ->
      ignore (Blockio.read t ~off:4090 ~len:10))

let test_block_dev_timing () =
  let machine, _ = boot () in
  let ram = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:Units.mib in
  let emmc = Block_dev.create machine ~kind:Block_dev.Emmc ~size:Units.mib in
  let data = Bytes.make (64 * Units.kib) 'd' in
  let t0 = Machine.now machine in
  Blockio.write (Block_dev.target ram) ~off:0 data;
  let ram_t = Machine.now machine -. t0 in
  let t1 = Machine.now machine in
  Blockio.write (Block_dev.target emmc) ~off:0 data;
  let emmc_t = Machine.now machine -. t1 in
  checkb "emmc slower" true (emmc_t > (5.0 *. ram_t))

(* ---------------------------- Dm_crypt ---------------------------- *)

let make_api machine frames =
  let api = Sentry_crypto.Crypto_api.create () in
  let g =
    Sentry_crypto.Generic_aes.create machine ~ctx_base:(Frame_alloc.alloc frames)
      ~variant:Sentry_crypto.Perf.Crypto_api_kernel
  in
  Sentry_crypto.Generic_aes.register g api;
  api

let test_dm_crypt_roundtrip_and_opacity () =
  let machine, frames = boot () in
  let api = make_api machine frames in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm = Dm_crypt.create ~api ~key:(Bytes.make 16 'k') (Block_dev.target dev) in
  let t = Dm_crypt.target dm in
  let secret = Bytes.of_string "filesystem secret block" in
  Blockio.write t ~off:512 secret;
  check_bytes "roundtrip" secret (Blockio.read t ~off:512 ~len:(Bytes.length secret));
  checkb "medium is ciphertext" false (Bytes_util.contains (Block_dev.raw dev) secret)

let test_dm_crypt_unaligned_rmw () =
  let machine, frames = boot () in
  let api = make_api machine frames in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm = Dm_crypt.create ~api ~key:(Bytes.make 16 'k') (Block_dev.target dev) in
  let t = Dm_crypt.target dm in
  Blockio.write t ~off:0 (Bytes.make 1024 'A');
  (* partial overwrite inside a sector *)
  Blockio.write t ~off:100 (Bytes.of_string "XYZ");
  let back = Blockio.read t ~off:0 ~len:1024 in
  checkb "prefix intact" true (Bytes.get back 99 = 'A');
  check_bytes "overwrite" (Bytes.of_string "XYZ") (Bytes.sub back 100 3);
  checkb "suffix intact" true (Bytes.get back 103 = 'A')

let test_dm_crypt_sector_ivs_differ () =
  let machine, frames = boot () in
  let api = make_api machine frames in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm = Dm_crypt.create ~api ~key:(Bytes.make 16 'k') (Block_dev.target dev) in
  let t = Dm_crypt.target dm in
  (* identical plaintext sectors must produce distinct ciphertext (ESSIV) *)
  let sector = Bytes.make 512 'S' in
  Blockio.write t ~off:0 sector;
  Blockio.write t ~off:512 sector;
  let raw = Block_dev.raw dev in
  checkb "no watermark" false (Bytes.equal (Bytes.sub raw 0 512) (Bytes.sub raw 512 512))

let test_dm_crypt_wrong_key_garbage () =
  let machine, frames = boot () in
  let api = make_api machine frames in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm1 = Dm_crypt.create ~api ~key:(Bytes.make 16 'a') (Block_dev.target dev) in
  Blockio.write (Dm_crypt.target dm1) ~off:0 (Bytes.make 512 'P');
  let dm2 = Dm_crypt.create ~api ~key:(Bytes.make 16 'b') (Block_dev.target dev) in
  let got = Blockio.read (Dm_crypt.target dm2) ~off:0 ~len:512 in
  checkb "garbage under wrong key" false (Bytes.equal got (Bytes.make 512 'P'))

let test_dm_crypt_xts_mode () =
  let machine, frames = boot () in
  let api = make_api machine frames in
  (* also register the xts flavour *)
  let g2 =
    Sentry_crypto.Generic_aes.create machine ~ctx_base:(Frame_alloc.alloc frames)
      ~variant:Sentry_crypto.Perf.Crypto_api_kernel
  in
  Sentry_crypto.Generic_aes.register_xts g2 api;
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm =
    Dm_crypt.create ~algorithm:"xts(aes)" ~api ~key:(Bytes.make 32 'k') (Block_dev.target dev)
  in
  checkb "xts driver" true (Dm_crypt.cipher_name dm = "aes-generic-xts");
  let t = Dm_crypt.target dm in
  let secret = Bytes.of_string "xts protected filesystem data!!!" in
  Blockio.write t ~off:1024 secret;
  check_bytes "roundtrip" secret (Blockio.read t ~off:1024 ~len:(Bytes.length secret));
  checkb "ciphertext on medium" false (Bytes_util.contains (Block_dev.raw dev) secret);
  (* identical sectors still diverge (tweak = sector number) *)
  let s0 = Bytes.make 512 'S' in
  Blockio.write t ~off:0 s0;
  Blockio.write t ~off:512 s0;
  let raw = Block_dev.raw dev in
  checkb "no watermark under xts" false
    (Bytes.equal (Bytes.sub raw 0 512) (Bytes.sub raw 512 512))

let test_dm_crypt_stats () =
  let machine, frames = boot () in
  let api = make_api machine frames in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm = Dm_crypt.create ~api ~key:(Bytes.make 16 'k') (Block_dev.target dev) in
  Blockio.write (Dm_crypt.target dm) ~off:0 (Bytes.make 1024 'x');
  ignore (Blockio.read (Dm_crypt.target dm) ~off:0 ~len:1024);
  let enc, dec = Dm_crypt.stats dm in
  checki "2 sectors encrypted" 2 enc;
  checki "2 sectors decrypted" 2 dec

(* -------------------------- Buffer_cache -------------------------- *)

let counting_target size =
  let store = Bytes.make size '\000' in
  let reads = ref 0 and writes = ref 0 in
  ( {
      Blockio.name = "counted";
      size;
      read =
        (fun ~off ~len ->
          incr reads;
          Bytes.sub store off len);
      write =
        (fun ~off b ->
          incr writes;
          Bytes.blit b 0 store off (Bytes.length b));
    },
    store,
    reads,
    writes )

let test_cache_hit_avoids_lower () =
  let machine, _ = boot () in
  let lower, _, reads, _ = counting_target (64 * Units.kib) in
  let cache = Buffer_cache.create machine ~capacity_pages:16 lower in
  let t = Buffer_cache.target cache in
  ignore (Blockio.read t ~off:0 ~len:4096);
  let after_first = !reads in
  ignore (Blockio.read t ~off:0 ~len:4096);
  ignore (Blockio.read t ~off:100 ~len:16);
  checki "no more lower reads" after_first !reads;
  let h, m = Buffer_cache.stats cache in
  checkb "hits recorded" true (h >= 2 && m = 1)

let test_cache_write_back_on_sync () =
  let machine, _ = boot () in
  let lower, store, _, writes = counting_target (64 * Units.kib) in
  let cache = Buffer_cache.create machine ~capacity_pages:16 lower in
  let t = Buffer_cache.target cache in
  Blockio.write t ~off:10 (Bytes.of_string "dirty");
  checki "no lower write yet" 0 !writes;
  Buffer_cache.sync cache;
  checkb "wrote" true (!writes > 0);
  check_bytes "content" (Bytes.of_string "dirty") (Bytes.sub store 10 5)

let test_cache_lru_eviction () =
  let machine, _ = boot () in
  let lower, _, reads, _ = counting_target (64 * Units.kib) in
  let cache = Buffer_cache.create machine ~capacity_pages:2 lower in
  let t = Buffer_cache.target cache in
  ignore (Blockio.read t ~off:0 ~len:8);
  (* page 0 *)
  ignore (Blockio.read t ~off:4096 ~len:8);
  (* page 1 *)
  ignore (Blockio.read t ~off:0 ~len:8);
  (* touch page 0: now MRU *)
  ignore (Blockio.read t ~off:8192 ~len:8);
  (* page 2 evicts page 1 (LRU) *)
  let r = !reads in
  ignore (Blockio.read t ~off:0 ~len:8);
  checki "page 0 still cached" r !reads;
  ignore (Blockio.read t ~off:4096 ~len:8);
  checki "page 1 was evicted" (r + 1) !reads

let test_cache_eviction_flushes_dirty () =
  let machine, _ = boot () in
  let lower, store, _, _ = counting_target (64 * Units.kib) in
  let cache = Buffer_cache.create machine ~capacity_pages:1 lower in
  let t = Buffer_cache.target cache in
  Blockio.write t ~off:0 (Bytes.of_string "must-survive");
  ignore (Blockio.read t ~off:4096 ~len:8);
  (* evicts dirty page 0 *)
  check_bytes "flushed on eviction" (Bytes.of_string "must-survive") (Bytes.sub store 0 12)

let test_cache_drop () =
  let machine, _ = boot () in
  let lower, store, _, _ = counting_target (64 * Units.kib) in
  let cache = Buffer_cache.create machine ~capacity_pages:8 lower in
  let t = Buffer_cache.target cache in
  Blockio.write t ~off:0 (Bytes.of_string "persisted");
  Buffer_cache.drop cache;
  check_bytes "synced by drop" (Bytes.of_string "persisted") (Bytes.sub store 0 9);
  let _, m0 = Buffer_cache.stats cache in
  ignore (Blockio.read t ~off:0 ~len:9);
  let _, m1 = Buffer_cache.stats cache in
  checki "cold after drop" (m0 + 1) m1

(* ------------------------------ Ramfs ----------------------------- *)

let ramfs_fixture () =
  let machine, _ = boot () in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(256 * Units.kib) in
  Ramfs.create (Block_dev.target dev)

let test_ramfs_create_write_read () =
  let fs = ramfs_fixture () in
  let f = Ramfs.create_file fs ~name:"a.txt" ~size:10000 in
  Ramfs.write fs f ~off:5000 (Bytes.of_string "file content");
  check_bytes "read" (Bytes.of_string "file content") (Ramfs.read fs f ~off:5000 ~len:12);
  checki "size" 10000 (Ramfs.file_size f)

let test_ramfs_files_isolated () =
  let fs = ramfs_fixture () in
  let a = Ramfs.create_file fs ~name:"a" ~size:4096 in
  let b = Ramfs.create_file fs ~name:"b" ~size:4096 in
  Ramfs.write fs a ~off:0 (Bytes.make 4096 'A');
  Ramfs.write fs b ~off:0 (Bytes.make 4096 'B');
  checkb "a intact" true (Bytes.get (Ramfs.read fs a ~off:100 ~len:1) 0 = 'A');
  checkb "b intact" true (Bytes.get (Ramfs.read fs b ~off:100 ~len:1) 0 = 'B')

let test_ramfs_errors () =
  let fs = ramfs_fixture () in
  ignore (Ramfs.create_file fs ~name:"dup" ~size:100);
  Alcotest.check_raises "duplicate" (Invalid_argument "Ramfs.create_file: exists: dup")
    (fun () -> ignore (Ramfs.create_file fs ~name:"dup" ~size:100));
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Ramfs.lookup fs "nope"));
  let f = Ramfs.lookup fs "dup" in
  Alcotest.check_raises "eof" (Invalid_argument "Ramfs: I/O beyond EOF on dup") (fun () ->
      ignore (Ramfs.read fs f ~off:90 ~len:20))

let test_ramfs_no_space () =
  let fs = ramfs_fixture () in
  Alcotest.check_raises "nospace" Ramfs.No_space (fun () ->
      ignore (Ramfs.create_file fs ~name:"huge" ~size:Units.mib))

(* --------------------------- properties --------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"buffer cache agrees with a plain store" ~count:30
      (list_of_size Gen.(1 -- 40)
         (pair (int_range 0 ((32 * 1024) - 64)) (string_of_size Gen.(1 -- 64))))
      (fun ops ->
        let machine, _ = boot ~seed:7 () in
        let lower, _, _, _ = counting_target (32 * Units.kib) in
        let cache = Buffer_cache.create machine ~capacity_pages:3 lower in
        let t = Buffer_cache.target cache in
        let reference = Bytes.make (32 * Units.kib) '\000' in
        List.for_all
          (fun (off, s) ->
            let b = Bytes.of_string s in
            Blockio.write t ~off b;
            Bytes.blit b 0 reference off (Bytes.length b);
            let got = Blockio.read t ~off ~len:(Bytes.length b) in
            Bytes.equal got (Bytes.sub reference off (Bytes.length b)))
          ops);
    Test.make ~name:"dm-crypt target behaves like a plain store" ~count:15
      (list_of_size Gen.(1 -- 15)
         (pair (int_range 0 ((16 * 1024) - 600)) (string_of_size Gen.(1 -- 600))))
      (fun ops ->
        let machine, frames = boot ~seed:8 () in
        let api = make_api machine frames in
        let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(16 * Units.kib) in
        let t = Dm_crypt.target (Dm_crypt.create ~api ~key:(Bytes.make 16 'k') (Block_dev.target dev)) in
        let reference = Bytes.make (16 * Units.kib) '\000' in
        List.for_all
          (fun (off, s) ->
            let b = Bytes.of_string s in
            Blockio.write t ~off b;
            Bytes.blit b 0 reference off (Bytes.length b);
            Bytes.equal (Blockio.read t ~off ~len:(Bytes.length b))
              (Bytes.sub reference off (Bytes.length b)))
          ops);
    Test.make ~name:"frame allocator never double-allocates" ~count:20 (int_range 1 200)
      (fun n ->
        let _, frames = boot ~seed:9 () in
        let fs = List.init (min n (Frame_alloc.total_frames frames)) (fun _ -> Frame_alloc.alloc frames) in
        List.length (List.sort_uniq compare fs) = List.length fs);
    (* The Sentry lock/unlock paths hammer the scheduler with park /
       unpark / admit storms (recovery re-runs park already-parked
       pids; unlock re-admits).  Whatever the op sequence, the queues
       stay disjoint, duplicate-free, and free of Locked_out pids in
       the run queue. *)
    Test.make ~name:"scheduler queues stay consistent" ~count:60
      (list_of_size Gen.(1 -- 60) (pair (int_range 0 3) (int_range 0 3)))
      (fun ops ->
        let machine, frames = boot ~seed:10 () in
        let sched = Sched.create machine in
        let procs = Array.init 4 (fun _ -> make_proc machine frames ~bytes:4096) in
        let invariants () =
          let run, locked = Sched.queues sched in
          let pids l = List.map (fun (p : Process.t) -> p.Process.pid) l in
          let no_dups l = List.length (List.sort_uniq compare l) = List.length l in
          let run_pids = pids run and locked_pids = pids locked in
          no_dups run_pids && no_dups locked_pids
          && (not (List.exists (fun pid -> List.mem pid locked_pids) run_pids))
          && not
               (List.exists (fun (p : Process.t) -> p.Process.state = Process.Locked_out) run)
        in
        List.for_all
          (fun (op, i) ->
            (match op with
            | 0 -> Sched.admit sched procs.(i)
            | 1 -> Sched.make_unschedulable sched procs.(i)
            | 2 -> Sched.make_schedulable sched procs.(i)
            | _ -> Sched.tick sched);
            invariants ())
          ops);
  ]

let () =
  Alcotest.run "sentry_kernel"
    [
      ("page", [ Alcotest.test_case "helpers" `Quick test_page_helpers ]);
      ( "frame_alloc",
        [
          Alcotest.test_case "basic" `Quick test_frame_alloc_basic;
          Alcotest.test_case "free goes dirty" `Quick test_frame_alloc_free_goes_dirty;
          Alcotest.test_case "dirty reuse zeroed" `Quick test_frame_alloc_dirty_reuse_is_zeroed;
          Alcotest.test_case "oom" `Quick test_frame_alloc_oom;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "basics" `Quick test_page_table_basics;
          Alcotest.test_case "clear young" `Quick test_page_table_clear_young;
        ] );
      ( "address_space",
        [
          Alcotest.test_case "map region" `Quick test_aspace_map_region;
          Alcotest.test_case "regions disjoint" `Quick test_aspace_regions_disjoint;
          Alcotest.test_case "share region" `Quick test_aspace_share_region;
          Alcotest.test_case "unmap frees" `Quick test_aspace_unmap_frees;
          Alcotest.test_case "iter region ptes" `Quick test_aspace_iter_region_ptes;
        ] );
      ( "vm",
        [
          Alcotest.test_case "read/write" `Quick test_vm_read_write;
          Alcotest.test_case "cross page" `Quick test_vm_cross_page_access;
          Alcotest.test_case "segfault" `Quick test_vm_segfault;
          Alcotest.test_case "young fault once" `Quick test_vm_young_fault_fires_once;
          Alcotest.test_case "kernel time" `Quick test_vm_fault_charges_kernel_time;
          Alcotest.test_case "unresolved fault" `Quick test_vm_unresolved_fault_is_segfault;
        ] );
      ( "sched",
        [
          Alcotest.test_case "round robin" `Quick test_sched_round_robin;
          Alcotest.test_case "unschedulable queue" `Quick test_sched_unschedulable_queue;
          Alcotest.test_case "register spill" `Quick test_sched_spills_registers;
          Alcotest.test_case "masked when irqs off" `Quick test_sched_masked_when_irqs_off;
        ] );
      ( "zerod",
        [
          Alcotest.test_case "drain zeroes" `Quick test_zerod_drains_and_zeroes;
          Alcotest.test_case "rate calibration" `Quick test_zerod_rate_calibration;
        ] );
      ( "block_dev",
        [
          Alcotest.test_case "roundtrip" `Quick test_block_dev_roundtrip;
          Alcotest.test_case "bounds" `Quick test_block_dev_bounds;
          Alcotest.test_case "timing" `Quick test_block_dev_timing;
        ] );
      ( "dm_crypt",
        [
          Alcotest.test_case "roundtrip + opacity" `Quick test_dm_crypt_roundtrip_and_opacity;
          Alcotest.test_case "unaligned rmw" `Quick test_dm_crypt_unaligned_rmw;
          Alcotest.test_case "essiv no watermark" `Quick test_dm_crypt_sector_ivs_differ;
          Alcotest.test_case "wrong key" `Quick test_dm_crypt_wrong_key_garbage;
          Alcotest.test_case "stats" `Quick test_dm_crypt_stats;
          Alcotest.test_case "xts mode" `Quick test_dm_crypt_xts_mode;
        ] );
      ( "buffer_cache",
        [
          Alcotest.test_case "hit avoids lower" `Quick test_cache_hit_avoids_lower;
          Alcotest.test_case "writeback on sync" `Quick test_cache_write_back_on_sync;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty eviction flushes" `Quick test_cache_eviction_flushes_dirty;
          Alcotest.test_case "drop" `Quick test_cache_drop;
        ] );
      ( "ramfs",
        [
          Alcotest.test_case "create/write/read" `Quick test_ramfs_create_write_read;
          Alcotest.test_case "isolation" `Quick test_ramfs_files_isolated;
          Alcotest.test_case "errors" `Quick test_ramfs_errors;
          Alcotest.test_case "no space" `Quick test_ramfs_no_space;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
