open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_bytes = Alcotest.(check bytes)

let pattern = Bytes.of_string "TOPSECRT"

let boot ?(seed = 1) () = System.boot `Tegra3 ~seed

let spawn_filled system ~bytes =
  let proc = System.spawn system ~name:"app" ~bytes in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region pattern;
  (proc, region)

let dram_holds system needle =
  Bytes_util.contains (Dram.raw (Machine.dram (System.machine system))) needle

(* ---------------------------- Iram_alloc -------------------------- *)

let test_iram_alloc_respects_firmware_area () =
  let system = boot () in
  let a = Iram_alloc.create (System.machine system) in
  checki "usable" (192 * Units.kib) (Iram_alloc.usable_bytes a);
  for _ = 1 to 100 do
    match Iram_alloc.alloc a ~bytes:512 with
    | Some addr ->
        checkb "above firmware" true
          (addr >= Memmap.iram_base + Memmap.iram_firmware_reserved)
    | None -> ()
  done

let test_iram_alloc_exhaustion_and_free () =
  let system = boot () in
  let a = Iram_alloc.create (System.machine system) in
  let blocks = ref [] in
  (try
     while true do
       match Iram_alloc.alloc a ~bytes:(16 * Units.kib) with
       | Some addr -> blocks := addr :: !blocks
       | None -> raise Exit
     done
   with Exit -> ());
  checki "12 x 16KB fits in 192KB" 12 (List.length !blocks);
  checkb "exhausted" true (Iram_alloc.alloc a ~bytes:(16 * Units.kib) = None);
  List.iter (Iram_alloc.free a) !blocks;
  checki "all free" (192 * Units.kib) (Iram_alloc.free_bytes a);
  checkb "big alloc after coalesce" true (Iram_alloc.alloc a ~bytes:(150 * Units.kib) <> None)

let test_iram_alloc_double_free () =
  let system = boot () in
  let a = Iram_alloc.create (System.machine system) in
  let addr = Option.get (Iram_alloc.alloc a ~bytes:100) in
  Iram_alloc.free a addr;
  Alcotest.check_raises "double free" (Invalid_argument "Iram_alloc.free: not an allocated block")
    (fun () -> Iram_alloc.free a addr)

(* --------------------------- Locked_cache ------------------------- *)

let make_locked ?(max_ways = 2) system =
  Locked_cache.create (System.machine system) ~arena_base:system.System.arena_base ~max_ways

let test_locked_cache_alloc_locks_way () =
  let system = boot () in
  let lc = make_locked system in
  checki "no ways yet" 0 (Locked_cache.locked_ways lc);
  let page = Locked_cache.alloc_page lc in
  checki "one way" 1 (Locked_cache.locked_ways lc);
  checkb "page in arena" true (Locked_cache.contains lc page);
  checki "31 left" 31 (Locked_cache.free_pages lc)

let test_locked_cache_pages_resident_in_locked_way () =
  let system = boot () in
  let machine = System.machine system in
  let lc = make_locked system in
  let page = Locked_cache.alloc_page lc in
  (* every line of the page must be resident in a locked way *)
  let l2 = Machine.l2 machine in
  for i = 0 to 127 do
    match Pl310.lookup l2 (page + (i * 32)) with
    | Some w -> checkb "way locked" true (Pl310.lockdown l2 land (1 lsl w) <> 0)
    | None -> Alcotest.fail "line not resident"
  done

let test_locked_cache_data_never_in_dram () =
  let system = boot () in
  let machine = System.machine system in
  let lc = make_locked system in
  let page = Locked_cache.alloc_page lc in
  Machine.write machine page (Bytes.of_string "ON-SOC-ONLY-DATA");
  (* pressure + flushes *)
  let dram = Machine.dram_region machine in
  for i = 0 to 8191 do
    ignore (Machine.read machine (dram.Memmap.base + (i * 32)) 8)
  done;
  Pl310.flush_masked (Machine.l2 machine);
  checkb "never written back" false (dram_holds system (Bytes.of_string "ON-SOC-ONLY-DATA"));
  check_bytes "still readable" (Bytes.of_string "ON-SOC-ONLY-DATA") (Machine.read machine page 16)

let test_locked_cache_grows_on_demand () =
  let system = boot () in
  let lc = make_locked ~max_ways:2 system in
  let pages = List.init 33 (fun _ -> Locked_cache.alloc_page lc) in
  checki "second way locked" 2 (Locked_cache.locked_ways lc);
  checki "33 distinct" 33 (List.length (List.sort_uniq compare pages))

let test_locked_cache_budget_exhausted () =
  let system = boot () in
  let lc = make_locked ~max_ways:1 system in
  for _ = 1 to 32 do
    ignore (Locked_cache.alloc_page lc)
  done;
  Alcotest.check_raises "exhausted" Locked_cache.Exhausted (fun () ->
      ignore (Locked_cache.alloc_page lc))

let test_locked_cache_free_page_scrubs_and_recycles () =
  let system = boot () in
  let machine = System.machine system in
  let lc = make_locked system in
  let page = Locked_cache.alloc_page lc in
  Machine.write machine page (Bytes.of_string "scrub-me");
  Locked_cache.free_page lc page;
  checkb "scrubbed" false
    (Bytes_util.contains (Machine.read machine page 4096) (Bytes.of_string "scrub-me"));
  let again = Locked_cache.alloc_page lc in
  checki "recycled" page again

let test_locked_cache_unlock_all_erases () =
  let system = boot () in
  let machine = System.machine system in
  let lc = make_locked system in
  let page = Locked_cache.alloc_page lc in
  Machine.write machine page (Bytes.of_string "ERASE-ON-UNLOCK!");
  Locked_cache.unlock_all lc;
  checki "no ways" 0 (Locked_cache.locked_ways lc);
  checki "lockdown cleared" 0 (Pl310.lockdown (Machine.l2 machine));
  (* even if the (now unlocked) lines get written back, only 0xFF can
     reach DRAM *)
  Pl310.flush_masked (Machine.l2 machine);
  checkb "secret gone" false (dram_holds system (Bytes.of_string "ERASE-ON-UNLOCK!"))

let test_locked_cache_rejects_nexus () =
  let system = System.boot `Nexus4 ~seed:2 in
  Alcotest.check_raises "nexus"
    (Invalid_argument "Locked_cache: cache locking unavailable on this platform") (fun () ->
      ignore (make_locked system))

let test_locked_cache_leaves_a_way_unlocked () =
  let system = boot () in
  Alcotest.check_raises "8 ways"
    (Invalid_argument "Locked_cache: must leave at least one way unlocked") (fun () ->
      ignore (make_locked ~max_ways:8 system))

(* ------------------------------ Onsoc ----------------------------- *)

let test_onsoc_iram_flavor () =
  let system = boot () in
  let onsoc = Onsoc.of_config (System.machine system)
      { (Config.default `Tegra3) with Config.storage = Config.Use_iram }
      ~arena_base:system.System.arena_base
  in
  let addr = Onsoc.alloc onsoc ~bytes:64 in
  checkb "in iram" true (Sram.contains (Machine.iram (System.machine system)) addr);
  Onsoc.free onsoc addr

let test_onsoc_locked_flavor () =
  let system = boot () in
  let onsoc =
    Onsoc.of_config (System.machine system) (Config.default `Tegra3)
      ~arena_base:system.System.arena_base
  in
  let addr = Onsoc.alloc onsoc ~bytes:4096 in
  checkb "in dram arena" true (Machine.in_dram (System.machine system) addr)

let test_onsoc_dma_protection () =
  let system = boot () in
  let machine = System.machine system in
  let onsoc = Onsoc.of_config machine
      { (Config.default `Tegra3) with Config.storage = Config.Use_iram }
      ~arena_base:system.System.arena_base
  in
  Onsoc.protect_from_dma onsoc machine;
  let addr = Onsoc.alloc onsoc ~bytes:64 in
  Machine.write machine addr (Bytes.of_string "key!");
  match Dma.read (Machine.dma machine) ~addr ~len:4 with
  | Error Dma.Denied -> ()
  | _ -> Alcotest.fail "iram should be DMA-denied"

(* --------------------------- Key_manager -------------------------- *)

let test_key_manager_volatile_on_soc () =
  let system = boot () in
  let machine = System.machine system in
  let onsoc =
    Onsoc.of_config machine (Config.default `Tegra3) ~arena_base:system.System.arena_base
  in
  let km = Key_manager.create machine onsoc in
  let key = Key_manager.volatile_key km in
  checki "length" 16 (Bytes.length key);
  check_bytes "stable" key (Key_manager.volatile_key km);
  (* the key must not be in DRAM-proper (it lives in the locked arena,
     whose DRAM cells hold only stale warming data) *)
  Pl310.flush_masked (Machine.l2 machine);
  checkb "not in dram" false (dram_holds system key)

let test_key_manager_persistent () =
  let system = boot () in
  let machine = System.machine system in
  let onsoc =
    Onsoc.of_config machine (Config.default `Tegra3) ~arena_base:system.System.arena_base
  in
  let km = Key_manager.create machine onsoc in
  checkb "none yet" true (Key_manager.persistent_key km = None);
  let k = Key_manager.unlock_persistent km ~password:"pw" in
  checkb "stored" true (Key_manager.persistent_key km = Some k);
  let k2 = Key_manager.unlock_persistent km ~password:"pw" in
  check_bytes "re-derivable" k k2

let test_key_manager_wipe () =
  let system = boot () in
  let machine = System.machine system in
  let onsoc =
    Onsoc.of_config machine (Config.default `Tegra3) ~arena_base:system.System.arena_base
  in
  let km = Key_manager.create machine onsoc in
  let key = Key_manager.volatile_key km in
  Key_manager.wipe km;
  checkb "wiped" false (Bytes.equal key (Key_manager.volatile_key km))

(* ---------------------------- Lock_state -------------------------- *)

let test_lock_state_cycle () =
  let ls = Lock_state.create ~pin:"1234" ~max_attempts:3 in
  checkb "unlocked" true (Lock_state.state ls = Lock_state.Unlocked);
  Lock_state.begin_lock ls;
  Lock_state.finish_lock ls;
  checkb "locked" true (Lock_state.state ls = Lock_state.Locked);
  (match Lock_state.begin_unlock ls ~pin:"1234" with Ok () -> () | Error _ -> Alcotest.fail "pin");
  Lock_state.finish_unlock ls;
  checkb "unlocked again" true (Lock_state.state ls = Lock_state.Unlocked);
  let locks, unlocks, _ = Lock_state.counts ls in
  checki "locks" 1 locks;
  checki "unlocks" 1 unlocks

let test_lock_state_deep_lock () =
  let ls = Lock_state.create ~pin:"1234" ~max_attempts:3 in
  Lock_state.begin_lock ls;
  Lock_state.finish_lock ls;
  for _ = 1 to 3 do
    match Lock_state.begin_unlock ls ~pin:"0000" with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "bad pin accepted"
  done;
  checkb "deep locked" true (Lock_state.state ls = Lock_state.Deep_locked);
  (* even the right PIN is refused now *)
  match Lock_state.begin_unlock ls ~pin:"1234" with
  | Error Lock_state.Deep_lock_engaged -> ()
  | _ -> Alcotest.fail "deep lock not engaged"

let test_lock_state_counter_resets_on_success () =
  let ls = Lock_state.create ~pin:"1234" ~max_attempts:3 in
  Lock_state.begin_lock ls;
  Lock_state.finish_lock ls;
  ignore (Lock_state.begin_unlock ls ~pin:"1111");
  ignore (Lock_state.begin_unlock ls ~pin:"2222");
  (match Lock_state.begin_unlock ls ~pin:"1234" with Ok () -> () | Error _ -> Alcotest.fail "pin");
  Lock_state.finish_unlock ls;
  let _, _, failed = Lock_state.counts ls in
  checki "reset" 0 failed

let test_lock_state_invalid_transitions () =
  let ls = Lock_state.create ~pin:"1" ~max_attempts:3 in
  Alcotest.check_raises "finish without begin"
    (Lock_state.Invalid_transition "finish_lock from unlocked") (fun () ->
      Lock_state.finish_lock ls);
  Alcotest.check_raises "unlock while unlocked"
    (Lock_state.Invalid_transition "begin_unlock from unlocked") (fun () ->
      ignore (Lock_state.begin_unlock ls ~pin:"1"))

(* --------------------------- Share_policy ------------------------- *)

let test_share_policy () =
  let system = boot () in
  let p1 = System.spawn system ~name:"sensitive1" ~bytes:4096 in
  let p2 = System.spawn system ~name:"sensitive2" ~bytes:4096 in
  let p3 = System.spawn system ~name:"innocent" ~bytes:4096 in
  let r_all =
    Address_space.map_region p1.Process.aspace ~name:"shm-a" ~kind:(Address_space.Shared "a")
      ~bytes:4096
  in
  Address_space.share_region p2.Process.aspace ~from_space:p1.Process.aspace r_all;
  let r_mixed =
    Address_space.map_region p1.Process.aspace ~name:"shm-b" ~kind:(Address_space.Shared "b")
      ~bytes:4096
  in
  Address_space.share_region p3.Process.aspace ~from_space:p1.Process.aspace r_mixed;
  Process.mark_sensitive p1;
  Process.mark_sensitive p2;
  let all_procs = system.System.procs in
  checkb "sensitive-only group encrypted" true (Share_policy.should_encrypt ~all_procs r_all);
  checkb "mixed group skipped" false (Share_policy.should_encrypt ~all_procs r_mixed);
  checkb "normal encrypted" true
    (Share_policy.should_encrypt ~all_procs
       (Option.get (Address_space.find_region p1.Process.aspace ~name:"main")))

(* ------------------------- Sentry facade -------------------------- *)

let install ?(config = Config.default `Tegra3) system = Sentry.install system config

let test_sentry_lock_encrypts_unlock_restores () =
  let system = boot () in
  let sentry = install system in
  let proc, region = spawn_filled system ~bytes:(64 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  Pl310.flush_masked (Machine.l2 (System.machine system));
  checkb "plaintext before" true (dram_holds system pattern);
  let stats = Sentry.lock sentry in
  checki "16 pages" 16 stats.Encrypt_on_lock.pages_encrypted;
  checkb "ciphertext after" false (dram_holds system pattern);
  checkb "unschedulable" true (proc.Process.state = Process.Locked_out);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  checkb "schedulable" true (proc.Process.state = Process.Runnable);
  check_bytes "lazy decrypt on touch" pattern
    (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8)

let test_sentry_lock_is_idempotent_per_page () =
  let system = boot () in
  let sentry = install system in
  let proc, _ = spawn_filled system ~bytes:(16 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> ());
  (* nothing touched: all pages still ciphertext; second lock must not
     double-encrypt *)
  let stats = Sentry.lock sentry in
  checki "nothing re-encrypted" 0 stats.Encrypt_on_lock.pages_encrypted;
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> ());
  let proc_region = List.hd (Address_space.regions proc.Process.aspace) in
  check_bytes "content intact" pattern
    (Vm.read system.System.vm proc ~vaddr:proc_region.Address_space.vstart ~len:8)

let test_sentry_wrong_pin_keeps_encrypted () =
  let system = boot () in
  let sentry = install system in
  let proc, _ = spawn_filled system ~bytes:(16 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"9999" with
  | Error Lock_state.Bad_pin -> ()
  | _ -> Alcotest.fail "bad pin accepted");
  checkb "still locked" true (Sentry.is_locked sentry);
  checkb "still ciphertext" false (dram_holds system pattern);
  checkb "still unschedulable" true (proc.Process.state = Process.Locked_out)

let test_sentry_deep_lock_after_attempts () =
  let system = boot () in
  let sentry = install system in
  let proc, _ = spawn_filled system ~bytes:4096 in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  for _ = 1 to 5 do
    ignore (Sentry.unlock sentry ~pin:"0000")
  done;
  match Sentry.unlock sentry ~pin:"1234" with
  | Error Lock_state.Deep_lock_engaged -> ()
  | _ -> Alcotest.fail "expected deep lock"

let test_sentry_dma_region_eager_decrypt () =
  let system = boot () in
  let sentry = install system in
  let proc = System.spawn system ~name:"gpuapp" ~bytes:(16 * Units.kib) in
  let dma_region =
    Address_space.map_region proc.Process.aspace ~name:"dma" ~kind:Address_space.Dma
      ~bytes:(8 * Units.kib)
  in
  System.fill_region system proc dma_region pattern;
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  match Sentry.unlock sentry ~pin:"1234" with
  | Ok stats ->
      checki "dma pages eager" 2 stats.Decrypt_on_unlock.dma_pages_eager;
      (* the DMA engine (no page faults!) must see plaintext at once *)
      let pte = List.hd (Address_space.region_ptes proc.Process.aspace dma_region) |> snd in
      (match Dma.read (Machine.dma (System.machine system)) ~addr:pte.Page_table.frame ~len:8 with
      | Ok b -> check_bytes "device view" pattern b
      | Error _ -> Alcotest.fail "dma denied")
  | Error _ -> Alcotest.fail "unlock"

let test_sentry_nonsensitive_untouched () =
  let system = boot () in
  let sentry = install system in
  let _sens, _ = spawn_filled system ~bytes:4096 in
  let innocent = System.spawn system ~name:"innocent" ~bytes:4096 in
  let r = List.hd (Address_space.regions innocent.Process.aspace) in
  System.fill_region system innocent r (Bytes.of_string "INNOCENT");
  let sens = List.hd system.System.procs in
  ignore sens;
  Sentry.mark_sensitive sentry (List.find (fun p -> p.Process.name = "app") system.System.procs);
  ignore (Sentry.lock sentry);
  checkb "innocent still runnable" true (innocent.Process.state = Process.Runnable);
  check_bytes "innocent data readable without faults" (Bytes.of_string "INNOCENT")
    (Vm.read system.System.vm innocent ~vaddr:r.Address_space.vstart ~len:8)

let test_sentry_freed_page_barrier () =
  let system = boot () in
  let sentry = install system in
  let proc, _ = spawn_filled system ~bytes:(16 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  (* app frees a region holding secrets just before lock *)
  let tmp =
    Address_space.map_region proc.Process.aspace ~name:"tmp" ~kind:Address_space.Normal
      ~bytes:8192
  in
  System.fill_region system proc tmp (Bytes.of_string "FREEDSEC");
  Pl310.flush_masked (Machine.l2 (System.machine system));
  Address_space.unmap_region proc.Process.aspace tmp;
  let stats = Sentry.lock sentry in
  checkb "zerod ran" true (stats.Encrypt_on_lock.freed_pages_zeroed >= 2);
  checkb "freed secrets gone" false (dram_holds system (Bytes.of_string "FREEDSEC"))

let test_sentry_eager_unlock_ablation () =
  let system = boot () in
  let sentry = install system in
  let proc, region = spawn_filled system ~bytes:(32 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  (match Sentry.unlock_eager sentry ~pin:"1234" with
  | Ok pages -> checki "all pages decrypted" 8 pages
  | Error _ -> Alcotest.fail "unlock");
  (* no faults needed to read now *)
  let faults0 = proc.Process.faults in
  ignore (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8);
  checkb "no new decrypt faults" true (proc.Process.faults - faults0 <= 1)

let test_sentry_nexus_config () =
  let system = System.boot `Nexus4 ~seed:5 in
  let sentry = install ~config:(Config.default `Nexus4) system in
  let proc, region = spawn_filled system ~bytes:(16 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  checkb "encrypted" false (dram_holds system pattern);
  checkb "no background engine" true (Sentry.background_engine sentry = None);
  Alcotest.check_raises "background rejected"
    (Invalid_argument "Sentry.enable_background: platform has no locked-cache paging")
    (fun () -> Sentry.enable_background sentry proc);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  check_bytes "restored" pattern
    (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8)

let test_sentry_config_validation () =
  let system = System.boot `Nexus4 ~seed:6 in
  Alcotest.check_raises "nexus locked-l2 config"
    (Invalid_argument
       "Sentry.install: nexus4: cache locking unavailable (locked firmware); use iRAM")
    (fun () ->
      ignore (install ~config:{ (Config.default `Nexus4) with Config.storage = Config.Use_locked_l2 } system))

let test_sentry_registers_crypto_api () =
  let system = boot () in
  ignore (install system);
  let impl = Sentry_crypto.Crypto_api.find system.System.crypto_api ~algorithm:"cbc(aes)" in
  checkb "aes-on-soc wins" true (impl.Sentry_crypto.Crypto_api.name = "aes-on-soc")

(* Sentry registers one driver, for the one mode dm-crypt uses. *)
let test_sentry_registers_one_driver () =
  let system = boot () in
  ignore (install system);
  Alcotest.(check (list (pair string string)))
    "drivers" [ ("aes-on-soc", "cbc(aes)") ]
    (List.map
       (fun (i : Sentry_crypto.Crypto_api.impl) ->
         (i.Sentry_crypto.Crypto_api.name, i.Sentry_crypto.Crypto_api.algorithm))
       (Sentry_crypto.Crypto_api.list system.System.crypto_api))

let test_sentry_journal_flag () =
  let system = boot ~seed:30 () in
  let sentry = install system in
  checkb "journal off by default" false (Sentry.journal_enabled sentry);
  checkb "nothing to recover" true (Sentry.recover sentry = None);
  let system2 = boot ~seed:31 () in
  let sentry2 =
    install ~config:{ (Config.default `Tegra3) with Config.journal = true } system2
  in
  checkb "journal on when configured" true (Sentry.journal_enabled sentry2);
  checkb "idle system: recover is a no-op" true (Sentry.recover sentry2 = None);
  checkb "no stats recorded" true (Sentry.last_recovery_stats sentry2 = None)

(* Regression: [set_backend] used to accept a
   switch in any state — swapping the walk driver and journal
   granularity out from under a Locked system, so a later unlock (or a
   recovery replaying an interrupted walk) ran under the wrong engine.
   The switch must be confined to [Unlocked]; re-selecting the
   installed backend stays a state-independent no-op. *)
let test_sentry_backend_switch_guarded () =
  let system = boot ~seed:32 () in
  let sentry = install system in
  let proc, _ = spawn_filled system ~bytes:(32 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  Alcotest.check_raises "switch rejected while locked"
    (Invalid_argument "Sentry.set_backend: cannot switch to offload while locked")
    (fun () -> Sentry.set_backend sentry Sentry.Offload);
  checkb "backend unchanged" true (Sentry.backend sentry = Sentry.Batched);
  Sentry.set_backend sentry Sentry.Batched;
  checkb "no-op re-select kept the lock" true (Sentry.is_locked sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock");
  Sentry.set_backend sentry Sentry.Offload;
  checkb "switch allowed while unlocked" true (Sentry.backend sentry = Sentry.Offload)

(* ------------------------- page transform memo --------------------- *)

(* The host cipher reuses the output of page transforms it has just
   computed (an exact memo in [Aes_on_soc]).  End to end, the DRAM
   ciphertext must still be what a memo-free cipher writes: lock,
   unlock, fault every page in, change one byte of one page, lock
   again; then lose power mid-lock, recover (which re-keys), and lock
   once more. *)
let test_page_memo_end_to_end () =
  let system = System.boot `Nexus4 ~seed:44 in
  let sentry = install ~config:(Config.default `Nexus4) system in
  let machine = System.machine system in
  let proc, region = spawn_filled system ~bytes:(32 * Units.kib) in
  Sentry.mark_sensitive sentry proc;
  let pid = proc.Process.pid in
  let ptes () = Address_space.region_ptes proc.Process.aspace region in
  let dram = Machine.dram machine in
  let dram_page (pte : Page_table.pte) =
    Bytes.sub (Dram.raw dram) (pte.Page_table.frame - (Dram.region dram).Memmap.base) Page.size
  in
  let vaddr vpn = vpn * Page.size in
  let unlock () =
    match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock"
  in
  (* every page's cleartext, read through the VM (faulting it in) *)
  let read_all () =
    List.map
      (fun (vpn, _) -> (vpn, Vm.read system.System.vm proc ~vaddr:(vaddr vpn) ~len:Page.size))
      (ptes ())
  in
  (* the ciphertext a memo-free cipher writes for [clear] at [vpn] *)
  let expected vpn clear =
    let k = Sentry_crypto.Aes.expand (Key_manager.volatile_key (Sentry.key_manager sentry)) in
    let iv = Page_crypt.iv (Sentry.page_crypt sentry) ~pid ~vpn in
    let out = Bytes.copy clear in
    Sentry_crypto.Aes.cbc_encrypt_into k ~iv ~iv_off:0 out 0 out 0 (Page.size / 16);
    out
  in
  let check_locked label clears =
    List.iter
      (fun (vpn, pte) ->
        checkb (Printf.sprintf "%s: page %d encrypted" label vpn) true pte.Page_table.encrypted;
        check_bytes
          (Printf.sprintf "%s: page %d ciphertext" label vpn)
          (expected vpn (List.assoc vpn clears))
          (dram_page pte))
      (ptes ())
  in
  let clears = read_all () in
  checki "8 pages" 8 (List.length clears);
  ignore (Sentry.lock sentry);
  check_locked "first lock" clears;
  let first = List.map (fun (vpn, pte) -> (vpn, dram_page pte)) (ptes ()) in
  unlock ();
  check_bytes "faulted-in cleartext" (snd (List.hd clears)) (snd (List.hd (read_all ())));
  let changed_vpn, _ = List.nth (ptes ()) 3 in
  Vm.write system.System.vm proc ~vaddr:(vaddr changed_vpn + 100) (Bytes.of_string "!");
  let clears' = read_all () in
  ignore (Sentry.lock sentry);
  check_locked "second lock" clears';
  List.iter
    (fun (vpn, pte) ->
      if vpn <> changed_vpn then
        check_bytes (Printf.sprintf "unchanged page %d keeps its ciphertext" vpn)
          (List.assoc vpn first) (dram_page pte))
    (ptes ());
  (* power loss after the second page of the next lock, then recovery
     with a fresh volatile key *)
  unlock ();
  ignore (read_all ());
  let module Injector = Sentry_faults.Injector in
  Injector.activate
    (Injector.create
       (Sentry_faults.Plan.make ~name:"memo"
          [
            Sentry_faults.Plan.trigger ~point:Injector.Points.page_encrypted
              ~kind:Sentry_faults.Fault.Power_loss ~at:(Sentry_faults.Plan.Nth 2);
          ]));
  (match Sentry.lock sentry with
  | (_ : Encrypt_on_lock.stats) -> Alcotest.fail "lock survived the injected power loss"
  | exception Injector.Injected _ -> ());
  Injector.deactivate ();
  Machine.reboot machine (Machine.Hard_reset 2.0);
  (match Sentry.recover sentry with
  | Some r -> checkb "rekeyed" true r.Sentry.rekeyed
  | None -> Alcotest.fail "recover must see the interrupted lock");
  (* the pages encrypted under the lost key are gone; write the old
     cleartext back and lock under the new key *)
  unlock ();
  List.iter (fun (vpn, clear) -> Vm.write system.System.vm proc ~vaddr:(vaddr vpn) clear) clears';
  ignore (Sentry.lock sentry);
  check_locked "lock after recovery" clears';
  List.iter
    (fun (vpn, pte) ->
      if Bytes.equal (List.assoc vpn first) (dram_page pte) then
        Alcotest.failf "page %d kept its ciphertext under the lost key" vpn)
    (ptes ())

(* ---------------------------- Background -------------------------- *)

let boot_background ?(budget = 256 * Units.kib) ?(bytes = 512 * Units.kib) () =
  let system = boot ~seed:11 () in
  let config = { (Config.default `Tegra3) with Config.background_budget_bytes = budget } in
  let sentry = Sentry.install system config in
  let proc, region = spawn_filled system ~bytes in
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  (system, sentry, proc, region)

let test_background_reads_correct_data () =
  let system, _, proc, region = boot_background () in
  for i = 0 to 127 do
    check_bytes "page content" pattern
      (Vm.read system.System.vm proc
         ~vaddr:(region.Address_space.vstart + (i * Page.size))
         ~len:8)
  done

let test_background_never_leaks_plaintext () =
  let system, sentry, proc, region = boot_background () in
  let leaked = ref false in
  for i = 0 to 127 do
    ignore
      (Vm.read system.System.vm proc
         ~vaddr:(region.Address_space.vstart + (i * Page.size))
         ~len:8);
    if dram_holds system pattern then leaked := true
  done;
  checkb "no plaintext in DRAM at any point" false !leaked;
  let bg = Option.get (Sentry.background_engine sentry) in
  let page_ins, page_outs = Background.stats bg in
  checkb "paged in" true (page_ins >= 128);
  checkb "evicted" true (page_outs > 0)

let test_background_budget_respected () =
  let system, sentry, proc, region = boot_background ~budget:(256 * Units.kib) () in
  let bg = Option.get (Sentry.background_engine sentry) in
  for i = 0 to 127 do
    ignore
      (Vm.read system.System.vm proc
         ~vaddr:(region.Address_space.vstart + (i * Page.size))
         ~len:8);
    checkb "within budget" true (Background.resident_pages bg <= 62)
  done

let test_background_writes_survive_eviction () =
  let system, _, proc, region = boot_background () in
  let vm = system.System.vm in
  (* write to page 0, then storm the rest to force its eviction *)
  Vm.write vm proc ~vaddr:region.Address_space.vstart (Bytes.of_string "MODIFIED");
  for i = 1 to 127 do
    ignore (Vm.read vm proc ~vaddr:(region.Address_space.vstart + (i * Page.size)) ~len:8)
  done;
  (* page 0 must have been evicted (encrypted back); reading it again
     pages it back in with the modification intact *)
  check_bytes "write survived round trip" (Bytes.of_string "MODIFIED")
    (Vm.read vm proc ~vaddr:region.Address_space.vstart ~len:8);
  checkb "still no plaintext" false (dram_holds system (Bytes.of_string "MODIFIED"))

let test_background_evict_all_on_unlock () =
  let system, sentry, proc, region = boot_background () in
  ignore (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  let bg = Option.get (Sentry.background_engine sentry) in
  checki "nothing resident" 0 (Background.resident_pages bg);
  check_bytes "readable after unlock" pattern
    (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8)

let qcheck_tests =
  let open QCheck in
  [
    (* Locked-cache protocol invariants under random alloc/free
       sequences: every live page's lines stay resident in a locked
       way, lockdown and flush masks stay equal, and at least one way
       is always left unlocked for the rest of the system. *)
    Test.make ~name:"locked-cache protocol invariants" ~count:20
      (list_of_size Gen.(1 -- 40) (oneofl [ `Alloc; `Free ]))
      (fun ops ->
        let system = System.boot `Tegra3 ~seed:19 ~dram_size:(8 * Units.mib) in
        let machine = System.machine system in
        let l2 = Machine.l2 machine in
        let lc =
          Locked_cache.create machine ~arena_base:system.System.arena_base ~max_ways:3
        in
        let live = ref [] in
        List.for_all
          (fun op ->
            (match op with
            | `Alloc -> (
                try live := Locked_cache.alloc_page lc :: !live
                with Locked_cache.Exhausted -> ())
            | `Free -> (
                match !live with
                | p :: rest ->
                    Locked_cache.free_page lc p;
                    live := rest
                | [] -> ()));
            Pl310.lockdown l2 = Pl310.flush_mask l2
            && Pl310.lockdown l2 land (1 lsl (Pl310.ways l2 - 1)) = 0
            && List.for_all
                 (fun page ->
                   match Pl310.lookup l2 page with
                   | Some w -> Pl310.lockdown l2 land (1 lsl w) <> 0
                   | None -> false)
                 !live)
          ops);
    (* Model-based test of the background pager: a random sequence of
       reads, writes and aging sweeps against a locked device must
       behave exactly like a plain byte array -- and never put
       plaintext in DRAM. *)
    Test.make ~name:"background pager refines a plain store" ~count:8
      (list_of_size Gen.(5 -- 40)
         (triple (int_range 0 31) (oneofl [ `Read; `Write; `Age ]) (string_of_size Gen.(return 8))))
      (fun ops ->
        let system, sentry, proc, region = (
          let system = System.boot `Tegra3 ~seed:17 ~dram_size:(8 * Units.mib) in
          let config = { (Config.default `Tegra3) with Config.background_budget_bytes = 64 * 1024 } in
          let sentry = install ~config system in
          let proc = System.spawn system ~name:"model" ~bytes:(32 * Page.size) in
          let region = List.hd (Address_space.regions proc.Process.aspace) in
          System.fill_region system proc region (Bytes.of_string "modelbgq");
          Sentry.mark_sensitive sentry proc;
          Sentry.enable_background sentry proc;
          ignore (Sentry.lock sentry);
          (system, sentry, proc, region))
        in
        ignore sentry;
        let vm = system.System.vm in
        let model = Bytes.create (32 * Page.size) in
        Bytes_util.fill_pattern model (Bytes.of_string "modelbgq");
        let dram = Dram.raw (Machine.dram (System.machine system)) in
        let table = Address_space.table proc.Process.aspace in
        let vpn0 = Page.vpn_of region.Address_space.vstart in
        List.for_all
          (fun (page, op, payload) ->
            let vaddr = region.Address_space.vstart + (page * Page.size) in
            (match op with
            | `Read -> ()
            | `Write ->
                Vm.write vm proc ~vaddr (Bytes.of_string payload);
                Bytes.blit_string payload 0 model (page * Page.size) 8
            | `Age -> (
                match Page_table.find table ~vpn:(vpn0 + page) with
                | Some pte -> pte.Page_table.young <- false
                | None -> ()));
            let got = Vm.read vm proc ~vaddr ~len:8 in
            Bytes.equal got (Bytes.sub model (page * Page.size) 8)
            && (not (Bytes_util.contains dram (Bytes.of_string "modelbgq")))
            && not (String.length payload = 8 && Bytes_util.contains dram (Bytes.of_string payload)))
          ops);
    Test.make ~name:"iram allocator: blocks disjoint and in range" ~count:30
      (list_of_size Gen.(1 -- 20) (int_range 8 4096))
      (fun sizes ->
        let system = boot ~seed:13 () in
        let a = Iram_alloc.create (System.machine system) in
        let blocks =
          List.filter_map (fun b -> Option.map (fun addr -> (addr, b)) (Iram_alloc.alloc a ~bytes:b)) sizes
        in
        let sorted = List.sort compare blocks in
        let rec disjoint = function
          | (a1, s1) :: ((a2, _) :: _ as rest) ->
              a1 + ((s1 + 7) / 8 * 8) <= a2 && disjoint rest
          | _ -> true
        in
        List.for_all (fun (addr, _) -> Iram_alloc.in_range a addr) blocks && disjoint sorted);
    (* Allocator bookkeeping under random alloc/free interleavings:
       free + allocated always equals usable, the free list always sums
       to free_bytes, and it stays address-sorted with no two adjacent
       blocks touching (i.e. fully coalesced). *)
    Test.make ~name:"iram allocator: accounting and coalesced free list" ~count:40
      (list_of_size Gen.(1 -- 40) (pair (int_range 1 2048) bool))
      (fun ops ->
        let system = boot ~seed:21 () in
        let a = Iram_alloc.create (System.machine system) in
        let live = ref [] in
        List.for_all
          (fun (n, do_free) ->
            (if do_free && !live <> [] then begin
               (* free from a pseudo-random position, not just the head *)
               let i = n mod List.length !live in
               Iram_alloc.free a (List.nth !live i);
               live := List.filteri (fun j _ -> j <> i) !live
             end
             else
               match Iram_alloc.alloc a ~bytes:n with
               | Some addr -> live := addr :: !live
               | None -> ());
            let blocks = Iram_alloc.free_blocks a in
            let rec sorted_and_coalesced = function
              | (a1, s1) :: ((a2, _) :: _ as rest) ->
                  a1 + s1 < a2 && sorted_and_coalesced rest
              | _ -> true
            in
            Iram_alloc.free_bytes a + Iram_alloc.allocated_bytes a
            = Iram_alloc.usable_bytes a
            && List.fold_left (fun acc (_, s) -> acc + s) 0 blocks = Iram_alloc.free_bytes a
            && sorted_and_coalesced blocks
            && List.for_all
                 (fun (addr, s) ->
                   s > 0 && Iram_alloc.in_range a addr && Iram_alloc.in_range a (addr + s - 1))
                 blocks)
          ops);
    Test.make ~name:"lock/unlock roundtrip preserves process memory" ~count:10
      (pair (int_range 1 16) small_printable_string)
      (fun (pages, content) ->
        QCheck.assume (String.length content > 0);
        let system = boot ~seed:14 () in
        let sentry = install system in
        let proc = System.spawn system ~name:"q" ~bytes:(pages * Page.size) in
        let region = List.hd (Address_space.regions proc.Process.aspace) in
        System.fill_region system proc region (Bytes.of_string content);
        Sentry.mark_sensitive sentry proc;
        ignore (Sentry.lock sentry);
        (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> assert false);
        let len = min 64 (pages * Page.size) in
        let want = Bytes.create len in
        Bytes_util.fill_pattern want (Bytes.of_string content);
        Bytes.equal want (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len));
  ]

(* --------------------------- pid spaces ---------------------------- *)

(* [boot ~pid_base] starts a system's pid space at the given base
   (pids feed the per-page ESSIV IVs, so sharded fleets need disjoint
   deterministic ranges); spawns in another system never perturb it. *)
let test_system_pid_base_private_space () =
  let other = System.boot `Tegra3 ~seed:1 in
  let g0 = System.spawn other ~name:"g0" ~bytes:Page.size in
  let owned = System.boot `Tegra3 ~seed:2 ~pid_base:100 in
  let a = System.spawn owned ~name:"a" ~bytes:Page.size in
  let b = System.spawn owned ~name:"b" ~bytes:Page.size in
  checki "first pid is the base" 100 a.Process.pid;
  checki "pids consecutive" 101 b.Process.pid;
  let g1 = System.spawn other ~name:"g1" ~bytes:Page.size in
  checki "other system untouched by the private space" (g0.Process.pid + 1) g1.Process.pid

(* Without [~pid_base] every system's pids start at 1, so two systems
   booted alike in one OS process lock their first process to the same
   ciphertext: a run's DRAM never depends on what the process spawned
   before it. *)
let test_system_pids_start_at_one () =
  let lock_first_process () =
    let system = boot ~seed:3 () in
    let sentry = install system in
    let proc, region = spawn_filled system ~bytes:(4 * Page.size) in
    Sentry.mark_sensitive sentry proc;
    ignore (Sentry.lock sentry);
    let dram = Machine.dram (System.machine system) in
    let frames =
      List.map
        (fun (_, (pte : Page_table.pte)) ->
          checkb "encrypted" true pte.Page_table.encrypted;
          Bytes.sub (Dram.raw dram) (pte.Page_table.frame - (Dram.region dram).Memmap.base)
            Page.size)
        (Address_space.region_ptes proc.Process.aspace region)
    in
    checkb "no cleartext in DRAM" false (dram_holds system pattern);
    (proc.Process.pid, frames)
  in
  let pid_a, frames_a = lock_first_process () in
  let pid_b, frames_b = lock_first_process () in
  checki "first system's pid" 1 pid_a;
  checki "second system's pid" 1 pid_b;
  checki "4 frames" 4 (List.length frames_a);
  List.iter2 (check_bytes "identical ciphertext") frames_a frames_b

let () =
  Alcotest.run "sentry_core"
    [
      ( "iram_alloc",
        [
          Alcotest.test_case "firmware area" `Quick test_iram_alloc_respects_firmware_area;
          Alcotest.test_case "exhaustion + coalesce" `Quick test_iram_alloc_exhaustion_and_free;
          Alcotest.test_case "double free" `Quick test_iram_alloc_double_free;
        ] );
      ( "locked_cache",
        [
          Alcotest.test_case "alloc locks way" `Quick test_locked_cache_alloc_locks_way;
          Alcotest.test_case "pages resident in locked way" `Quick
            test_locked_cache_pages_resident_in_locked_way;
          Alcotest.test_case "data never in DRAM" `Quick test_locked_cache_data_never_in_dram;
          Alcotest.test_case "grows on demand" `Quick test_locked_cache_grows_on_demand;
          Alcotest.test_case "budget exhausted" `Quick test_locked_cache_budget_exhausted;
          Alcotest.test_case "free scrubs + recycles" `Quick
            test_locked_cache_free_page_scrubs_and_recycles;
          Alcotest.test_case "unlock_all erases" `Quick test_locked_cache_unlock_all_erases;
          Alcotest.test_case "rejects nexus" `Quick test_locked_cache_rejects_nexus;
          Alcotest.test_case "leaves a way unlocked" `Quick test_locked_cache_leaves_a_way_unlocked;
        ] );
      ( "onsoc",
        [
          Alcotest.test_case "iram flavor" `Quick test_onsoc_iram_flavor;
          Alcotest.test_case "locked flavor" `Quick test_onsoc_locked_flavor;
          Alcotest.test_case "dma protection" `Quick test_onsoc_dma_protection;
        ] );
      ( "key_manager",
        [
          Alcotest.test_case "volatile on-soc" `Quick test_key_manager_volatile_on_soc;
          Alcotest.test_case "persistent" `Quick test_key_manager_persistent;
          Alcotest.test_case "wipe" `Quick test_key_manager_wipe;
        ] );
      ( "lock_state",
        [
          Alcotest.test_case "cycle" `Quick test_lock_state_cycle;
          Alcotest.test_case "deep lock" `Quick test_lock_state_deep_lock;
          Alcotest.test_case "counter reset" `Quick test_lock_state_counter_resets_on_success;
          Alcotest.test_case "invalid transitions" `Quick test_lock_state_invalid_transitions;
        ] );
      ("share_policy", [ Alcotest.test_case "policy" `Quick test_share_policy ]);
      ( "pid_space",
        [
          Alcotest.test_case "pid_base private space" `Quick test_system_pid_base_private_space;
          Alcotest.test_case "pids start at 1 per system" `Quick test_system_pids_start_at_one;
        ] );
      ( "sentry",
        [
          Alcotest.test_case "lock encrypts, unlock restores" `Quick
            test_sentry_lock_encrypts_unlock_restores;
          Alcotest.test_case "lock idempotent" `Quick test_sentry_lock_is_idempotent_per_page;
          Alcotest.test_case "wrong pin" `Quick test_sentry_wrong_pin_keeps_encrypted;
          Alcotest.test_case "deep lock" `Quick test_sentry_deep_lock_after_attempts;
          Alcotest.test_case "dma eager decrypt" `Quick test_sentry_dma_region_eager_decrypt;
          Alcotest.test_case "non-sensitive untouched" `Quick test_sentry_nonsensitive_untouched;
          Alcotest.test_case "freed-page barrier" `Quick test_sentry_freed_page_barrier;
          Alcotest.test_case "eager unlock ablation" `Quick test_sentry_eager_unlock_ablation;
          Alcotest.test_case "nexus config" `Quick test_sentry_nexus_config;
          Alcotest.test_case "config validation" `Quick test_sentry_config_validation;
          Alcotest.test_case "crypto api registration" `Quick test_sentry_registers_crypto_api;
          Alcotest.test_case "one crypto api driver" `Quick test_sentry_registers_one_driver;
          Alcotest.test_case "journal flag" `Quick test_sentry_journal_flag;
          Alcotest.test_case "backend switch guarded" `Quick
            test_sentry_backend_switch_guarded;
        ] );
      ("page_memo", [ Alcotest.test_case "end to end" `Quick test_page_memo_end_to_end ]);
      ( "background",
        [
          Alcotest.test_case "reads correct data" `Quick test_background_reads_correct_data;
          Alcotest.test_case "never leaks plaintext" `Quick test_background_never_leaks_plaintext;
          Alcotest.test_case "budget respected" `Quick test_background_budget_respected;
          Alcotest.test_case "writes survive eviction" `Quick test_background_writes_survive_eviction;
          Alcotest.test_case "evict all on unlock" `Quick test_background_evict_all_on_unlock;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
