(** Integration tests: whole-system scenarios crossing every library,
    plus the paper's headline security invariants end to end. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core
open Sentry_attacks

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_bytes = Alcotest.(check bytes)

let secret = Bytes.of_string "INTEGRATION-SECRET-0xF00D"

let launch ?(bytes = 64 * Units.kib) ?(seed = 1) ?(platform = `Tegra3) () =
  let system = System.boot platform ~seed in
  let sentry = Sentry.install system (Config.default platform) in
  let proc = System.spawn system ~name:"victim" ~bytes in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Pl310.flush_masked (Machine.l2 (System.machine system));
  Sentry.mark_sensitive sentry proc;
  (system, sentry, proc, region)

(* -------------------- headline invariant sweeps -------------------- *)

(* scan ALL of DRAM for the secret at every step of a full cycle *)
let test_full_cycle_dram_audit () =
  let system, sentry, proc, region = launch () in
  let machine = System.machine system in
  let dram () = Bytes_util.contains (Dram.raw (Machine.dram machine)) secret in
  checkb "unlocked: plaintext present (by design)" true (dram ());
  ignore (Sentry.lock sentry);
  checkb "locked: no plaintext" false (dram ());
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  checkb "post-unlock, untouched: still ciphertext" false (dram ());
  ignore (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8);
  Pl310.flush_masked (Machine.l2 machine);
  checkb "after touch: plaintext again (unlocked device)" true (dram ())

let test_repeated_cycles_stable () =
  let system, sentry, proc, region = launch () in
  for cycle = 1 to 8 do
    ignore (Sentry.lock sentry);
    checkb
      (Printf.sprintf "cycle %d ciphertext" cycle)
      false
      (Bytes_util.contains (Dram.raw (Machine.dram (System.machine system))) secret);
    (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
    check_bytes
      (Printf.sprintf "cycle %d readback" cycle)
      secret
      (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:(Bytes.length secret))
  done

let test_multi_app_mixed_sensitivity () =
  let system = System.boot `Tegra3 ~seed:3 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let machine = System.machine system in
  let mk name content =
    let p = System.spawn system ~name ~bytes:(32 * Units.kib) in
    let r = List.hd (Address_space.regions p.Process.aspace) in
    System.fill_region system p r (Bytes.of_string content);
    (p, r)
  in
  let bank, bank_r = mk "bank" "BANKDATA" in
  let game, game_r = mk "game" "GAMEDATA" in
  let mail, mail_r = mk "mail" "MAILDATA" in
  Sentry.mark_sensitive sentry bank;
  Sentry.mark_sensitive sentry mail;
  Pl310.flush_masked (Machine.l2 machine);
  ignore (Sentry.lock sentry);
  let dram = Dram.raw (Machine.dram machine) in
  checkb "bank encrypted" false (Bytes_util.contains dram (Bytes.of_string "BANKDATA"));
  checkb "mail encrypted" false (Bytes_util.contains dram (Bytes.of_string "MAILDATA"));
  checkb "game untouched" true (Bytes_util.contains dram (Bytes.of_string "GAMEDATA"));
  checkb "game still runnable" true (game.Process.state = Process.Runnable);
  check_bytes "game reads fine while locked" (Bytes.of_string "GAMEDATA")
    (Vm.read system.System.vm game ~vaddr:game_r.Address_space.vstart ~len:8);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  check_bytes "bank restored" (Bytes.of_string "BANKDATA")
    (Vm.read system.System.vm bank ~vaddr:bank_r.Address_space.vstart ~len:8);
  check_bytes "mail restored" (Bytes.of_string "MAILDATA")
    (Vm.read system.System.vm mail ~vaddr:mail_r.Address_space.vstart ~len:8)

let test_shared_pages_policy_end_to_end () =
  let system = System.boot `Tegra3 ~seed:4 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let machine = System.machine system in
  let p1 = System.spawn system ~name:"sens1" ~bytes:4096 in
  let p2 = System.spawn system ~name:"sens2" ~bytes:4096 in
  let p3 = System.spawn system ~name:"plain" ~bytes:4096 in
  (* group "ss": shared between two sensitive apps *)
  let r_ss =
    Address_space.map_region p1.Process.aspace ~name:"ss" ~kind:(Address_space.Shared "ss")
      ~bytes:4096
  in
  Address_space.share_region p2.Process.aspace ~from_space:p1.Process.aspace r_ss;
  System.fill_region system p1 r_ss (Bytes.of_string "SHARED-SENS!");
  (* group "sp": shared with the non-sensitive app *)
  let r_sp =
    Address_space.map_region p1.Process.aspace ~name:"sp" ~kind:(Address_space.Shared "sp")
      ~bytes:4096
  in
  Address_space.share_region p3.Process.aspace ~from_space:p1.Process.aspace r_sp;
  System.fill_region system p1 r_sp (Bytes.of_string "SHARED-PLAIN");
  Sentry.mark_sensitive sentry p1;
  Sentry.mark_sensitive sentry p2;
  Pl310.flush_masked (Machine.l2 machine);
  ignore (Sentry.lock sentry);
  let dram = Dram.raw (Machine.dram machine) in
  checkb "sensitive-only share encrypted" false
    (Bytes_util.contains dram (Bytes.of_string "SHARED-SENS!"));
  checkb "mixed share left alone" true
    (Bytes_util.contains dram (Bytes.of_string "SHARED-PLAIN"));
  (* the innocent app can still read the mixed share while locked *)
  check_bytes "p3 reads shared page" (Bytes.of_string "SHARED-PLAIN")
    (Vm.read system.System.vm p3 ~vaddr:r_sp.Address_space.vstart ~len:12)

(* -------------------------- suspend cycle -------------------------- *)

let test_suspend_resume_cycle () =
  let system, sentry, proc, region = launch ~seed:5 () in
  let machine = System.machine system in
  let susp = Suspend.create sentry in
  (* suspend encrypts *)
  (match Suspend.suspend susp with
  | Some stats -> checkb "encrypted" true (stats.Encrypt_on_lock.pages_encrypted > 0)
  | None -> Alcotest.fail "expected a lock pass");
  checkb "suspended" true (Suspend.suspended susp);
  checkb "no plaintext while asleep" false
    (Bytes_util.contains (Dram.raw (Machine.dram machine)) secret);
  (* incoming call wakes the device; still locked *)
  Suspend.wake susp ~reason:Suspend.Incoming_call ~slept_s:600.0;
  checkb "still locked" true (Sentry.is_locked sentry);
  (* suspend again: no second encryption pass *)
  checkb "no re-encryption" true (Suspend.suspend susp = None);
  (* user wakes and unlocks *)
  (match Suspend.wake_and_unlock susp ~pin:"1234" ~slept_s:60.0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock");
  check_bytes "data back" secret
    (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:(Bytes.length secret));
  let suspends, wakes = Suspend.counts susp in
  checki "suspend count" 2 suspends;
  checki "wake reasons" 2 (List.length wakes)

let test_suspend_background_service () =
  let system = System.boot `Tegra3 ~seed:6 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"mailer" ~bytes:(64 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  let susp = Suspend.create sentry in
  ignore (Suspend.suspend susp);
  (* three timer wakes: each polls mail while the device stays locked *)
  for i = 1 to 3 do
    let data =
      Suspend.background_service_cycle susp ~slept_s:900.0 (fun () ->
          Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8)
    in
    check_bytes (Printf.sprintf "poll %d" i) (Bytes.sub secret 0 8) data;
    checkb "locked throughout" true (Sentry.is_locked sentry)
  done;
  checkb "still no plaintext in DRAM" false
    (Bytes_util.contains (Dram.raw (Machine.dram (System.machine system))) secret)

let test_suspend_background_cycle_exception_safe () =
  let _, sentry, _, _ = launch ~seed:9 () in
  let susp = Suspend.create sentry in
  ignore (Suspend.suspend susp);
  let suspends0, _ = Suspend.counts susp in
  (* a service that dies mid-cycle must not strand the device awake *)
  (match Suspend.background_service_cycle susp ~slept_s:900.0 (fun () -> failwith "service crashed") with
  | (_ : unit) -> Alcotest.fail "the service exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "original exception" "service crashed" msg);
  checkb "re-suspended despite the crash" true (Suspend.suspended susp);
  checkb "still locked" true (Sentry.is_locked sentry);
  let suspends1, _ = Suspend.counts susp in
  checki "re-suspension went through suspend" (suspends0 + 1) suspends1;
  (* the state machine is intact: a clean cycle and a user unlock work *)
  checki "next cycle fine" 42 (Suspend.background_service_cycle susp ~slept_s:900.0 (fun () -> 42));
  checkb "suspended again" true (Suspend.suspended susp);
  match Suspend.wake_and_unlock susp ~pin:"1234" ~slept_s:10.0 with
  | Ok _ -> checkb "unlocked" false (Sentry.is_locked sentry)
  | Error _ -> Alcotest.fail "unlock after a crashed cycle"

let test_suspend_errors () =
  let _, sentry, _, _ = launch ~seed:7 () in
  let susp = Suspend.create sentry in
  Alcotest.check_raises "wake while awake" Suspend.Not_suspended (fun () ->
      Suspend.wake susp ~reason:Suspend.User_interaction ~slept_s:1.0);
  ignore (Suspend.suspend susp);
  Alcotest.check_raises "double suspend" Suspend.Already_suspended (fun () ->
      ignore (Suspend.suspend susp))

(* ------------------------ stock-flush danger ----------------------- *)

let test_stock_flush_would_leak_sentry_prevents () =
  (* reproduce the paper's discovery end to end: if any kernel path
     ran the stock full flush while Sentry holds plaintext in locked
     ways, the plaintext would hit DRAM.  Sentry's patched flush
     (masked) does not. *)
  let system = System.boot `Tegra3 ~seed:8 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"bg" ~bytes:(16 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  (* fault a page into the locked cache: plaintext now on-SoC *)
  ignore (Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8);
  let dram = Dram.raw (Machine.dram machine) in
  (* the Sentry-patched maintenance path: safe *)
  Pl310.flush_masked (Machine.l2 machine);
  checkb "masked flush safe" false (Bytes_util.contains dram secret);
  (* the stock path the paper had to eliminate: leaks *)
  Pl310.flush_all_stock (Machine.l2 machine);
  checkb "stock flush leaks" true (Bytes_util.contains dram secret)

(* ----------------------- dm-crypt end to end ----------------------- *)

let test_dm_crypt_full_stack_with_sentry () =
  let system = System.boot `Tegra3 ~seed:9 in
  let machine = System.machine system in
  ignore (Sentry.install system (Config.default `Tegra3));
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(512 * Units.kib) in
  let key = Prng.bytes (Prng.create ~seed:91) 16 in
  let dm = Dm_crypt.create ~api:system.System.crypto_api ~key (Block_dev.target dev) in
  checkb "picked aes-on-soc" true (Dm_crypt.cipher_name dm = "aes-on-soc");
  let cache = Buffer_cache.create machine ~capacity_pages:32 (Dm_crypt.target dm) in
  let fs = Ramfs.create (Buffer_cache.target cache) in
  let f = Ramfs.create_file fs ~name:"diary.txt" ~size:8192 in
  Ramfs.write fs f ~off:0 secret;
  Buffer_cache.sync cache;
  (* the medium holds ciphertext *)
  checkb "flash ciphertext" false (Bytes_util.contains (Block_dev.raw dev) secret);
  (* and a cold boot recovers neither the data nor the volume key *)
  Pl310.flush_masked (Machine.l2 machine);
  let keys = Cold_boot.keys_of_image (Cold_boot.image machine Cold_boot.Os_reboot) in
  checkb "no key schedules in DRAM" true (not (List.exists (Bytes.equal key) keys));
  (* file contents still decrypt correctly (fresh mapping, same key) *)
  let dm2 = Dm_crypt.create ~api:system.System.crypto_api ~key (Block_dev.target dev) in
  let fs2 = Ramfs.create (Dm_crypt.target dm2) in
  let f2 = Ramfs.create_file fs2 ~name:"diary.txt" ~size:8192 in
  ignore f2;
  let back = Blockio.read (Dm_crypt.target dm2) ~off:0 ~len:(Bytes.length secret) in
  check_bytes "volume still readable" secret back

(* ----------------------- minimum footprint ------------------------- *)

let test_minimum_two_page_configuration () =
  (* §7: Sentry works with just two on-SoC pages — one for AES_On_SoC,
     one for the page being transformed — albeit slowly. *)
  let system = System.boot `Tegra3 ~seed:10 in
  let config =
    {
      (Config.default `Tegra3) with
      Config.max_locked_ways = 1;
      background_budget_bytes = 4 * 4096 (* key page + ctx page + 1 work page + slack *);
    }
  in
  let sentry = Sentry.install system config in
  let proc = System.spawn system ~name:"tiny" ~bytes:(32 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  (* the pattern is 25 bytes, so page starts fall mid-pattern: record
     the expected prefix of each page before locking *)
  let expected =
    Array.init 8 (fun i ->
        Vm.read system.System.vm proc ~vaddr:(region.Address_space.vstart + (i * 4096)) ~len:8)
  in
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  (* touch every page: with a 1-2 page pool this thrashes, but works *)
  for i = 0 to 7 do
    check_bytes "correct under thrash" expected.(i)
      (Vm.read system.System.vm proc ~vaddr:(region.Address_space.vstart + (i * 4096)) ~len:8)
  done;
  let bg = Option.get (Sentry.background_engine sentry) in
  let page_ins, page_outs = Background.stats bg in
  checkb "heavy paging" true (page_ins >= 8 && page_outs >= 6);
  checkb "no plaintext" false
    (Bytes_util.contains (Dram.raw (Machine.dram (System.machine system))) secret)

(* ------------------------ table-free cipher ------------------------ *)

let test_aes_ct_matches_fips () =
  let hexd = Hex.decode in
  List.iter
    (fun (k, pt, ct) ->
      let key = Sentry_crypto.Aes_ct.expand (hexd k) in
      let out = Bytes.create 16 in
      Sentry_crypto.Aes_ct.encrypt_block key (hexd pt) 0 out 0;
      check_bytes "ct" (hexd ct) out;
      let dec = Bytes.create 16 in
      Sentry_crypto.Aes_ct.decrypt_block key (hexd ct) 0 dec 0;
      check_bytes "pt" (hexd pt) dec)
    [
      ( "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32" );
      ( "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089" );
    ]

let test_aes_ct_agrees_with_fast_on_random () =
  let p = Prng.create ~seed:11 in
  for _ = 1 to 50 do
    let key = Prng.bytes p 16 in
    let pt = Prng.bytes p 16 in
    let want = Sentry_crypto.Aes.encrypt_block_copy (Sentry_crypto.Aes.expand key) pt in
    let got = Bytes.create 16 in
    Sentry_crypto.Aes_ct.encrypt_block (Sentry_crypto.Aes_ct.expand key) pt 0 got 0;
    check_bytes "agree" want got
  done

let test_aes_ct_cbc_via_mode () =
  let key = Bytes.make 16 'k' and iv = Bytes.make 16 'i' in
  let data = Bytes.make 64 'd' in
  let want = Sentry_crypto.Mode.cbc_encrypt (Sentry_crypto.Mode.of_key (Sentry_crypto.Aes.expand key)) ~iv data in
  let got =
    Sentry_crypto.Mode.cbc_encrypt (Sentry_crypto.Aes_ct.cipher (Sentry_crypto.Aes_ct.expand key)) ~iv data
  in
  check_bytes "cbc agree" want got

let test_two_background_apps_share_pool () =
  (* two sensitive background apps page through the same locked pool
     while a non-sensitive app keeps running -- contents must never
     cross and DRAM stays clean *)
  let system = System.boot `Tegra3 ~seed:55 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let vm = system.System.vm in
  let mk name tag =
    let p = System.spawn system ~name ~bytes:(48 * Page.size) in
    let r = List.hd (Address_space.regions p.Process.aspace) in
    System.fill_region system p r (Bytes.of_string tag);
    Sentry.mark_sensitive sentry p;
    Sentry.enable_background sentry p;
    (p, r)
  in
  let mail, mail_r = mk "mail" "MAILPAGE" in
  let cal, cal_r = mk "calendar" "CALEPAGE" in
  let game = System.spawn system ~name:"game" ~bytes:(8 * Page.size) in
  let game_r = List.hd (Address_space.regions game.Process.aspace) in
  System.fill_region system game game_r (Bytes.of_string "GAMEPAGE");
  ignore (Sentry.lock sentry);
  let dram = Dram.raw (Machine.dram (System.machine system)) in
  (* interleave accesses: pool (62 pages) < combined WS (96 pages) *)
  for i = 0 to 47 do
    check_bytes "mail page" (Bytes.of_string "MAILPAGE")
      (Vm.read vm mail ~vaddr:(mail_r.Address_space.vstart + (i * Page.size)) ~len:8);
    check_bytes "calendar page" (Bytes.of_string "CALEPAGE")
      (Vm.read vm cal ~vaddr:(cal_r.Address_space.vstart + (i * Page.size)) ~len:8);
    check_bytes "game page (not sentry-managed)" (Bytes.of_string "GAMEPAGE")
      (Vm.read vm game ~vaddr:(game_r.Address_space.vstart + ((i mod 8) * Page.size)) ~len:8)
  done;
  checkb "no mail plaintext in DRAM" false (Bytes_util.contains dram (Bytes.of_string "MAILPAGE"));
  checkb "no calendar plaintext in DRAM" false
    (Bytes_util.contains dram (Bytes.of_string "CALEPAGE"));
  let bg = Option.get (Sentry.background_engine sentry) in
  let page_ins, page_outs = Background.stats bg in
  checkb "cross-process thrash" true (page_ins >= 96 && page_outs >= 30);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  check_bytes "mail intact after unlock" (Bytes.of_string "MAILPAGE")
    (Vm.read vm mail ~vaddr:mail_r.Address_space.vstart ~len:8)

(* ------------------------ failure injection ------------------------ *)

let test_attack_during_locking_window () =
  (* The encrypt-on-lock pass is not atomic: a device stolen mid-lock
     (power cut before the pass completes) still has the un-encrypted
     tail in DRAM.  Sentry cannot close this window — it can only make
     it short (Fig 4: ~1s) — so the simulator must show it exists. *)
  let system = System.boot `Tegra3 ~seed:51 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"victim" ~bytes:(64 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Pl310.flush_masked (Machine.l2 machine);
  Sentry.mark_sensitive sentry proc;
  (* interrupt the lock by encrypting only half the pages by hand *)
  let pc = Sentry.page_crypt sentry in
  List.iteri
    (fun i (vpn, pte) ->
      if i < region.Address_space.npages / 2 then begin
        Page_crypt.encrypt_frame pc ~pid:proc.Process.pid ~vpn ~frame:pte.Page_table.frame;
        pte.Page_table.encrypted <- true
      end)
    (Address_space.region_ptes proc.Process.aspace region);
  Pl310.flush_masked (Machine.l2 machine);
  (* the unencrypted tail is still exposed *)
  checkb "mid-lock window exists" true
    (Cold_boot.succeeds machine Cold_boot.Os_reboot ~secret);
  (* whereas a completed lock pass is not *)
  let system2, sentry2, _, _ = launch ~seed:52 () in
  ignore (Sentry.lock sentry2);
  checkb "completed lock safe" false
    (Cold_boot.succeeds (System.machine system2) Cold_boot.Os_reboot ~secret)

let test_dma_tamper_no_integrity_claim () =
  (* Sentry provides confidentiality, not integrity (CBC, no MAC): a
     DMA write into an encrypted page is not detected — it decrypts to
     garbage.  TrustZone can deny the windows that matter; this test
     documents the residual behaviour on an unprotected frame. *)
  let system, sentry, proc, region = launch ~seed:53 () in
  let machine = System.machine system in
  ignore (Sentry.lock sentry);
  let _, pte = List.hd (Address_space.region_ptes proc.Process.aspace region) in
  (match Dma_attack.inject machine ~addr:pte.Page_table.frame (Bytes.make 32 '\xAA') with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "frame not TrustZone-protected, write should land");
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  let back = Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:16 in
  checkb "tamper corrupts silently (no integrity)" false (Bytes.equal back (Bytes.sub secret 0 16))

let test_deep_lock_survives_reboot_of_state_machine () =
  (* once deep-locked, even a correct PIN is refused until reprovision *)
  let _, sentry, _, _ = launch ~seed:54 () in
  ignore (Sentry.lock sentry);
  for _ = 1 to 5 do
    ignore (Sentry.unlock sentry ~pin:"0000")
  done;
  (match Sentry.unlock sentry ~pin:"1234" with
  | Error Lock_state.Deep_lock_engaged -> ()
  | _ -> Alcotest.fail "deep lock must hold");
  checkb "state" true (Sentry.state sentry = Lock_state.Deep_locked)

let test_cold_boot_during_background_loses_nothing_to_attacker () =
  (* A cold boot strikes while background pages are decrypted in the
     locked cache: the attacker gets nothing (cache is on-SoC, DRAM is
     ciphertext).  The flip side is also by design: the volatile key
     dies with the boot, so the ciphertext is gone for everyone --
     exactly the semantics of volatile RAM. *)
  let system = System.boot `Tegra3 ~seed:61 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"bg" ~bytes:(32 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  (* pages live decrypted in the locked cache right now *)
  for i = 0 to 7 do
    ignore (Vm.read system.System.vm proc ~vaddr:(region.Address_space.vstart + (i * 4096)) ~len:8)
  done;
  checkb "attacker gets nothing" false
    (Cold_boot.succeeds machine Cold_boot.Device_reflash ~secret);
  checkb "no key schedules either" true
    (let d, _denied = Dma_attack.dump machine ~target:`Dram in
     Key_finder.scan d = [])

let test_killing_sensitive_app_while_locked () =
  (* the app's (encrypted) frames go to the dirty list; the next lock
     pass's zeroing barrier scrubs them *)
  let system = System.boot `Tegra3 ~seed:62 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"doomed" ~bytes:(16 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  System.kill system proc;
  checkb "frames parked dirty" true
    (Sentry_kernel.Frame_alloc.dirty_frames system.System.frames >= 4);
  let zeroed = Sentry_kernel.Zerod.drain system.System.zerod in
  checkb "scrubbed" true (zeroed >= 4);
  checkb "nothing left" false
    (Bytes_util.contains (Dram.raw (Machine.dram (System.machine system))) secret)

(* ---------------------- §10 future platform ------------------------ *)

let test_pinned_memory_basics () =
  let m = Machine.create ~seed:41 (Machine.future ~dram_size:(4 * Units.mib) ()) in
  let pm = Option.get (Machine.pinned m) in
  let base = (Sram.region pm).Memmap.base in
  Machine.write m base (Bytes.of_string "pinned!!");
  check_bytes "roundtrip" (Bytes.of_string "pinned!!") (Machine.read m base 8);
  (* no bus traffic *)
  let txns, _, _ = Bus.stats (Machine.bus m) in
  Machine.write m base (Bytes.make 1024 'x');
  let txns', _, _ = Bus.stats (Machine.bus m) in
  checki "on-SoC" txns txns';
  (* DMA cannot even decode it *)
  (match Dma.read (Machine.dma m) ~addr:base ~len:8 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "DMA reached pinned memory");
  (* boot ROM erases on every reset, warm included *)
  Machine.write m base secret;
  Machine.reboot m Machine.Warm;
  checkb "erased on warm reboot" true (Bytes_util.is_zero (Sram.raw pm));
  checkb "tegra has none" true (Machine.pinned (Machine.create (Machine.tegra3 ())) = None)

let test_pinned_config_gating () =
  let tegra = System.boot `Tegra3 ~seed:42 in
  Alcotest.check_raises "tegra rejects pinned"
    (Invalid_argument
       "Sentry.install: pinned on-SoC memory only exists on the future platform (S10)")
    (fun () ->
      ignore
        (Sentry.install tegra { (Config.default `Tegra3) with Config.storage = Config.Use_pinned }))

let test_sentry_on_future_platform () =
  let system = System.boot `Future ~seed:43 in
  let sentry = Sentry.install system (Config.default `Future) in
  checkb "pinned storage picked" true
    (match Sentry.onsoc sentry with Onsoc.Pinned_storage _ -> true | _ -> false);
  let proc = System.spawn system ~name:"app" ~bytes:(32 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region secret;
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  checkb "encrypted" false
    (Bytes_util.contains (Dram.raw (Machine.dram (System.machine system))) secret);
  (* background still works: pool comes from locked cache *)
  let b = Vm.read system.System.vm proc ~vaddr:region.Address_space.vstart ~len:8 in
  check_bytes "background read" (Bytes.sub secret 0 8) b;
  (* keys survive nowhere findable: pinned isn't in any attack surface *)
  checkb "dma" false (Dma_attack.succeeds (System.machine system) ~secret);
  match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock"

let test_jtag_attack_and_fuse () =
  let system = System.boot `Tegra3 ~seed:44 in
  let machine = System.machine system in
  (* place a secret in iRAM: invisible to every in-scope attack... *)
  Machine.write machine (Memmap.iram_base + (100 * Units.kib)) secret;
  checkb "jtag reads even iRAM" true (Jtag_attack.succeeds machine ~secret);
  (* ...but JTAG is preventable: burn the fuse *)
  Fuse.burn_jtag_fuse (Machine.fuse machine);
  checkb "fused device resists" false (Jtag_attack.succeeds machine ~secret);
  checkb "result is Jtag_disabled" true (Jtag_attack.dump machine = Jtag_attack.Jtag_disabled)

(* --------------------- experiment smoke tests ---------------------- *)

let test_experiments_registry_complete () =
  let ids = List.map (fun e -> e.Sentry_experiments.Experiments.id) Sentry_experiments.Experiments.all in
  List.iter
    (fun id -> checkb id true (List.mem id ids))
    [
      "table1"; "table2"; "table3"; "table4"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6";
      "fig7"; "pinned"; "ablations";
      "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "motivation"; "ablations";
    ];
  checkb "find works" true (Sentry_experiments.Experiments.find "fig9" <> None);
  checkb "unknown" true (Sentry_experiments.Experiments.find "fig99" = None)

let test_experiment_tables_nonempty () =
  (* run the cheap experiments and sanity-check their tables *)
  List.iter
    (fun id ->
      match Sentry_experiments.Experiments.find id with
      | Some e ->
          let tables =
            e.Sentry_experiments.Experiments.run (Sentry_experiments.Experiments.context ())
          in
          checkb (id ^ " has tables") true (tables <> []);
          List.iter
            (fun t -> checkb (id ^ " has rows") true (t.Table.rows <> []))
            tables
      | None -> Alcotest.fail ("missing " ^ id))
    [ "table3"; "table4"; "fig1"; "fig11"; "fig12" ]

let () =
  Alcotest.run "sentry_integration"
    [
      ( "invariants",
        [
          Alcotest.test_case "full-cycle DRAM audit" `Quick test_full_cycle_dram_audit;
          Alcotest.test_case "repeated cycles" `Quick test_repeated_cycles_stable;
          Alcotest.test_case "multi-app mixed sensitivity" `Quick test_multi_app_mixed_sensitivity;
          Alcotest.test_case "shared pages end to end" `Quick test_shared_pages_policy_end_to_end;
          Alcotest.test_case "two background apps share pool" `Quick
            test_two_background_apps_share_pool;
        ] );
      ( "suspend",
        [
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume_cycle;
          Alcotest.test_case "background service" `Quick test_suspend_background_service;
          Alcotest.test_case "crashed cycle re-suspends" `Quick
            test_suspend_background_cycle_exception_safe;
          Alcotest.test_case "errors" `Quick test_suspend_errors;
        ] );
      ( "system",
        [
          Alcotest.test_case "stock flush danger" `Quick test_stock_flush_would_leak_sentry_prevents;
          Alcotest.test_case "dm-crypt full stack" `Quick test_dm_crypt_full_stack_with_sentry;
          Alcotest.test_case "two-page minimum" `Quick test_minimum_two_page_configuration;
        ] );
      ( "aes_ct",
        [
          Alcotest.test_case "fips" `Quick test_aes_ct_matches_fips;
          Alcotest.test_case "agrees with fast" `Quick test_aes_ct_agrees_with_fast_on_random;
          Alcotest.test_case "cbc via mode" `Quick test_aes_ct_cbc_via_mode;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "mid-lock window" `Quick test_attack_during_locking_window;
          Alcotest.test_case "tamper: no integrity claim" `Quick
            test_dma_tamper_no_integrity_claim;
          Alcotest.test_case "deep lock holds" `Quick test_deep_lock_survives_reboot_of_state_machine;
          Alcotest.test_case "cold boot during background" `Quick
            test_cold_boot_during_background_loses_nothing_to_attacker;
          Alcotest.test_case "kill sensitive app" `Quick test_killing_sensitive_app_while_locked;
        ] );
      ( "future-platform",
        [
          Alcotest.test_case "pinned memory basics" `Quick test_pinned_memory_basics;
          Alcotest.test_case "config gating" `Quick test_pinned_config_gating;
          Alcotest.test_case "sentry on future" `Quick test_sentry_on_future_platform;
          Alcotest.test_case "jtag + fuse" `Quick test_jtag_attack_and_fuse;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick test_experiments_registry_complete;
          Alcotest.test_case "tables nonempty" `Quick test_experiment_tables_nonempty;
        ] );
    ]
