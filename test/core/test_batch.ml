(* Differential and regression suite for the batched lock/unlock
   pipeline.

   The batch engine ([Page_crypt.encrypt_batch]/[decrypt_batch] under
   [Encrypt_on_lock.run]/[Decrypt_on_unlock.run]) claims per-page
   simulated equivalence with the page-at-a-time reference walks
   ([run_per_page]/[run_eager_per_page], which no backend runs): same
   clock, energy, DRAM contents, taint shadows, PTE flags and attack
   verdicts.  Twin systems booted from the same seed run the same
   workload, each twin's walks driven directly on its
   [Sentry.page_crypt], and their full state fingerprints are compared
   bit for bit.

   The suite also carries the regression tests for the three bugs
   fixed alongside the batch work: the fault handler's fail-secure
   ordering, eager-path DMA coherence, and scheduler queue
   corruption (the latter's property test lives in test/kernel). *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core
module Injector = Sentry_faults.Injector
module Plan = Sentry_faults.Plan
module Fault = Sentry_faults.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let secret = "FLEET-SECRET-4242424242424242!!"

(* ------------------------- twin harness -------------------------- *)

(* A fig2-style workload: three sensitive apps, one carrying a DMA
   region, all filled with secret cleartext.  [shuffle] kills a
   middle process after two more have spawned, then respawns it, so
   the reused frames break the walk-order = frame-order property the
   sequential layout has. *)
let build ?(config = { (Config.default `Tegra3) with Config.track_taint = true })
    ?(shuffle = false) () =
  (* pids feed the per-page ESSIV IVs; twins own identical pid spaces *)
  let system = System.boot ~seed:11 ~pid_base:1 `Tegra3 in
  let sentry = Sentry.install system config in
  let machine = System.machine system in
  let spawn_filled ?dma_pages name pages =
    let proc = System.spawn system ~name ~bytes:(pages * Page.size) in
    let aspace = proc.Process.aspace in
    let regions =
      match dma_pages with
      | None -> Address_space.regions aspace
      | Some n ->
          ignore
            (Address_space.map_region aspace ~name:"dma" ~kind:Address_space.Dma
               ~bytes:(n * Page.size));
          Address_space.regions aspace
    in
    Machine.with_taint machine Taint.Secret_cleartext (fun () ->
        List.iter
          (fun r -> System.fill_region system proc r (Bytes.of_string (name ^ secret)))
          regions);
    Sentry.mark_sensitive sentry proc;
    proc
  in
  let mail = spawn_filled "mail" 8 in
  let procs =
    if shuffle then begin
      (* free mail's frames, spawn two more, then respawn mail: its
         new frames come off the free list out of walk order *)
      System.kill system mail;
      let maps = spawn_filled "maps" 12 ~dma_pages:4 in
      let wallet = spawn_filled "wallet" 6 in
      let mail = spawn_filled "mail" 8 in
      [ maps; wallet; mail ]
    end
    else
      let maps = spawn_filled "maps" 12 ~dma_pages:4 in
      let wallet = spawn_filled "wallet" 6 in
      [ mail; maps; wallet ]
  in
  (system, sentry, procs)

let touch_all (system : System.t) procs =
  List.iter
    (fun (proc : Process.t) ->
      List.iter
        (fun (r : Address_space.region) ->
          for p = 0 to r.Address_space.npages - 1 do
            Vm.touch system.System.vm proc
              ~vaddr:(r.Address_space.vstart + (p * Page.size))
          done)
        (Address_space.regions proc.Process.aspace))
    procs

(* ------------------------ state fingerprint ---------------------- *)

type fp = {
  clock : float;
  energy_total : float;
  energy_aes : float;
  l2 : int * int * int * int; (* hits, misses, writebacks, bypasses *)
  dram : Digest.t;
  shadow : Digest.t option;
  ptes : (int * int * int * bool * bool * bool) list;
  crypt : int * int; (* pages encrypted, decrypted *)
}

let fingerprint (system : System.t) sentry procs =
  let m = System.machine system in
  let s = Pl310.stats (Machine.l2 m) in
  let e = Machine.energy m in
  {
    clock = Clock.now (Machine.clock m);
    energy_total = Energy.total e;
    energy_aes = Energy.category e "aes";
    l2 = (s.Pl310.hits, s.Pl310.misses, s.Pl310.writebacks, s.Pl310.bypasses);
    dram = Digest.bytes (Dram.raw (Machine.dram m));
    shadow = Option.map Digest.bytes (Dram.shadow (Machine.dram m));
    ptes =
      List.concat_map
        (fun (proc : Process.t) ->
          List.concat_map
            (fun r ->
              List.map
                (fun (vpn, (pte : Page_table.pte)) ->
                  ( proc.Process.pid,
                    vpn,
                    pte.Page_table.frame,
                    pte.Page_table.present,
                    pte.Page_table.encrypted,
                    pte.Page_table.young ))
                (Address_space.region_ptes proc.Process.aspace r))
            (Address_space.regions proc.Process.aspace))
        procs;
    crypt = Page_crypt.counters (Sentry.page_crypt sentry);
  }

(* Exact comparison: the simulated observables must match bit for
   bit, not within a tolerance. *)
let check_fp label (a : fp) (b : fp) =
  checkb (label ^ ": clock bit-identical") true (a.clock = b.clock);
  checkb (label ^ ": energy total bit-identical") true (a.energy_total = b.energy_total);
  checkb (label ^ ": AES energy bit-identical") true (a.energy_aes = b.energy_aes);
  checkb (label ^ ": L2 stats identical") true (a.l2 = b.l2);
  checkb (label ^ ": DRAM contents identical") true (a.dram = b.dram);
  checkb (label ^ ": taint shadows identical") true (a.shadow = b.shadow);
  checkb (label ^ ": PTE state identical") true (a.ptes = b.ptes);
  checkb (label ^ ": crypt counters identical") true (a.crypt = b.crypt)

(* Semantic subset: memory, taint and PTEs — for layouts where the
   frame sort legitimately reorders the walk (timing then differs in
   op order, though totals stay equal up to float rounding). *)
let check_fp_semantic label (a : fp) (b : fp) =
  checkb (label ^ ": DRAM contents identical") true (a.dram = b.dram);
  checkb (label ^ ": taint shadows identical") true (a.shadow = b.shadow);
  checkb (label ^ ": PTE state identical") true (a.ptes = b.ptes);
  checkb (label ^ ": crypt counters identical") true (a.crypt = b.crypt)

(* ------------------- differential: lock / unlock ----------------- *)

(* The walks under comparison, driven directly on one twin: [`Batched]
   is what the Batched backend runs, [`Per_page] the page-at-a-time
   reference. *)
let lock_walk engine sentry =
  let walk =
    match engine with
    | `Batched -> Encrypt_on_lock.run ~backend:Backend.Batched
    | `Per_page -> Encrypt_on_lock.run_per_page
  in
  walk (Sentry.page_crypt sentry) (Sentry.system sentry)
    ~sensitive:(Sentry.sensitive_processes sentry) ~background:(fun _ -> false)

let unlock_walk engine sentry =
  let walk =
    match engine with
    | `Batched -> Decrypt_on_unlock.run ~backend:Backend.Batched
    | `Per_page -> Decrypt_on_unlock.run_per_page
  in
  walk (Sentry.page_crypt sentry) (Sentry.system sentry)
    ~sensitive:(Sentry.sensitive_processes sentry)

let eager_walk engine sentry =
  let walk =
    match engine with
    | `Batched -> Decrypt_on_unlock.run_eager ~backend:Backend.Batched
    | `Per_page -> Decrypt_on_unlock.run_eager_per_page
  in
  walk (Sentry.page_crypt sentry) (Sentry.system sentry)
    ~sensitive:(Sentry.sensitive_processes sentry)

let test_lock_unlock_differential () =
  let sys_b, sen_b, procs_b = build () in
  let sys_p, sen_p, procs_p = build () in
  let ls_b = lock_walk `Batched sen_b and ls_p = lock_walk `Per_page sen_p in
  checki "pages encrypted" ls_b.Encrypt_on_lock.pages_encrypted
    ls_p.Encrypt_on_lock.pages_encrypted;
  check_fp "locked" (fingerprint sys_b sen_b procs_b) (fingerprint sys_p sen_p procs_p);
  let us_b = unlock_walk `Batched sen_b and us_p = unlock_walk `Per_page sen_p in
  checki "eager DMA pages" us_b.Decrypt_on_unlock.dma_pages_eager
    us_p.Decrypt_on_unlock.dma_pages_eager;
  check_fp "unlocked" (fingerprint sys_b sen_b procs_b) (fingerprint sys_p sen_p procs_p);
  (* drive every lazy fault: the batched unlock installed the backend
     handler (the batch engine's page transform), the reference unlock
     one built on [Page_crypt.decrypt_frame] *)
  touch_all sys_b procs_b;
  touch_all sys_p procs_p;
  check_fp "after faults" (fingerprint sys_b sen_b procs_b) (fingerprint sys_p sen_p procs_p)

let test_eager_differential () =
  let sys_b, sen_b, procs_b = build () in
  let sys_p, sen_p, procs_p = build () in
  ignore (lock_walk `Batched sen_b);
  ignore (lock_walk `Per_page sen_p);
  checki "pages decrypted eagerly" (eager_walk `Batched sen_b) (eager_walk `Per_page sen_p);
  check_fp "eager unlock" (fingerprint sys_b sen_b procs_b) (fingerprint sys_p sen_p procs_p)

(* Shuffled frame layout: the batch sort genuinely reorders the walk,
   so only semantic state is promised (and delivered). *)
let test_shuffled_semantic () =
  let sys_b, sen_b, procs_b = build ~shuffle:true () in
  let sys_p, sen_p, procs_p = build ~shuffle:true () in
  ignore (lock_walk `Batched sen_b);
  ignore (lock_walk `Per_page sen_p);
  check_fp_semantic "locked (shuffled)" (fingerprint sys_b sen_b procs_b)
    (fingerprint sys_p sen_p procs_p);
  ignore (unlock_walk `Batched sen_b);
  ignore (unlock_walk `Per_page sen_p);
  touch_all sys_b procs_b;
  touch_all sys_p procs_p;
  check_fp_semantic "after faults (shuffled)" (fingerprint sys_b sen_b procs_b)
    (fingerprint sys_p sen_p procs_p)

(* Attack verdicts (the Table 3 claim) must agree between the walks:
   every cold-boot variant against a twin locked through [Sentry.lock]
   and a twin locked by the reference walk. *)
let test_attack_verdicts_agree () =
  List.iter
    (fun variant ->
      let sys_b, sen_b, _ = build () in
      let sys_p, sen_p, _ = build () in
      ignore (Sentry.lock sen_b);
      ignore (lock_walk `Per_page sen_p);
      let sec = Bytes.of_string secret in
      let v_b = Sentry_attacks.Cold_boot.succeeds (System.machine sys_b) variant ~secret:sec in
      let v_p = Sentry_attacks.Cold_boot.succeeds (System.machine sys_p) variant ~secret:sec in
      checkb
        (Printf.sprintf "verdicts agree (%s)" (Sentry_attacks.Cold_boot.variant_name variant))
        true
        (v_b = v_p);
      checkb
        (Printf.sprintf "defence holds (%s)" (Sentry_attacks.Cold_boot.variant_name variant))
        false v_b)
    [
      Sentry_attacks.Cold_boot.Os_reboot;
      Sentry_attacks.Cold_boot.Device_reflash;
      Sentry_attacks.Cold_boot.Two_second_reset;
    ]

(* ---------------------- coalesced journaling --------------------- *)

(* A batched lock crashed mid-walk must roll forward from its
   coalesced journal: the entry under-counts by up to
   [Lock_journal.coalesce - 1] pages and recovery (keyed off PTE
   bits) completes the pass anyway. *)
let test_journal_coalesced_roll_forward () =
  let config = { (Config.default `Tegra3) with Config.journal = true } in
  let _sys, sentry, _procs = build ~config () in
  checkb "journal active" true (Sentry.journal_enabled sentry);
  Injector.activate
    (Injector.create
       (Plan.make ~name:"mid-lock"
          [
            Plan.trigger ~point:Injector.Points.page_encrypted ~kind:Fault.Power_loss
              ~at:(Plan.Nth 5);
          ]));
  (try ignore (Sentry.lock sentry) with Injector.Injected _ -> ());
  Injector.deactivate ();
  (match Sentry.recover sentry with
  | Some r ->
      checkb "rolled forward to Locked" true (r.Sentry.resumed = Sentry.Resumed_lock);
      checkb "recovery re-encrypted the tail" true (r.Sentry.pages_fixed > 0);
      (match r.Sentry.journal_entry with
      | Some e ->
          (* 5 pages transformed and completed, one coalesce group flushed *)
          checki "coalesced pages_done" Lock_journal.coalesce e.Lock_journal.pages_done
      | None -> Alcotest.fail "journal entry missing")
  | None -> Alcotest.fail "recovery did not run");
  checkb "device locked after recovery" true (Sentry.is_locked sentry)

let test_journal_clean_run_recovers_nothing () =
  let config = { (Config.default `Tegra3) with Config.journal = true } in
  let _sys, sentry, _procs = build ~config () in
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock failed");
  checkb "nothing to recover after a clean cycle" true (Sentry.recover sentry = None)

(* ----------------- bug 1: fail-secure fault handler --------------- *)

(* Crash the lazy fault handler after the cleartext lands but before
   it returns.  Fail-secure ordering (encrypted bit cleared first)
   means the next lock walk sees the page as cleartext and
   re-encrypts it.  The buggy order (decrypt, then clear) left a
   cleartext frame whose PTE claimed ciphertext: the lock walk
   skipped it and the cold-boot attack read the secret. *)
let test_fault_handler_fail_secure () =
  let sys, sentry, procs = build () in
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock failed");
  Injector.activate
    (Injector.create
       (Plan.make ~name:"mid-handler"
          [
            Plan.trigger ~point:Injector.Points.page_decrypted ~kind:Fault.Reset ~at:(Plan.Nth 1);
          ]));
  let proc = List.hd procs in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  (match Vm.touch sys.System.vm proc ~vaddr:region.Address_space.vstart with
  | () -> Alcotest.fail "fault handler was not interrupted"
  | exception Injector.Injected _ -> ());
  Injector.deactivate ();
  (* the interrupted page: cleartext in memory, PTE must say so *)
  let _, pte = List.hd (Address_space.region_ptes proc.Process.aspace region) in
  checkb "interrupted page not marked encrypted" false pte.Page_table.encrypted;
  (* next lock must re-encrypt it, leaving nothing for a cold boot *)
  ignore (Sentry.lock sentry);
  checkb "page re-encrypted by next lock" true pte.Page_table.encrypted;
  checkb "no cleartext for the cold-boot attack" false
    (Sentry_attacks.Cold_boot.succeeds (System.machine sys)
       Sentry_attacks.Cold_boot.Two_second_reset ~secret:(Bytes.of_string secret))

(* ------------------- bug 2: eager DMA coherence ------------------- *)

(* Devices access DMA frames physically, bypassing the cache.  After
   an eager unlock the decrypted cleartext must already be in DRAM —
   the coherence sweep decrypt_region runs for DMA regions cleans the
   dirty lines out.  Without it the cleartext sat dirty in L2 and a
   device DMA read returned stale ciphertext. *)
let test_eager_dma_coherence () =
  let sys, sentry, _ = build () in
  let machine = System.machine sys in
  let maps = List.find (fun p -> p.Process.name = "maps") sys.System.procs in
  let dma =
    match Address_space.find_region maps.Process.aspace ~name:"dma" with
    | Some r -> r
    | None -> Alcotest.fail "maps has no DMA region"
  in
  let ptes = Address_space.region_ptes maps.Process.aspace dma in
  (* ground truth before locking, via the coherent CPU view *)
  let plaintext =
    List.map (fun (_, pte) -> Machine.read machine pte.Page_table.frame Page.size) ptes
  in
  ignore (Sentry.lock sentry);
  (match Sentry.unlock_eager sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock_eager failed");
  let raw = Dram.raw (Machine.dram machine) in
  let base = (Machine.dram_region machine).Memmap.base in
  List.iter2
    (fun (vpn, pte) expected ->
      let in_dram = Bytes.sub raw (pte.Page_table.frame - base) Page.size in
      if not (Bytes.equal in_dram expected) then
        Alcotest.failf "DMA frame for vpn %d stale in DRAM after eager unlock" vpn)
    ptes plaintext

(* ------------------- allocation ceiling (batch) ------------------- *)

(* The batch engine must preserve the per-page fast path's allocation
   discipline: one warm-up pass, then a steady-state lock/unlock
   cycle stays under a small per-page budget. *)
let test_batch_allocation_ceiling () =
  let _sys, sentry, _ =
    build ~config:(Config.default `Tegra3) ()
  in
  let cycle () =
    let ls = Sentry.lock sentry in
    (match Sentry.unlock_eager sentry ~pin:"1234" with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "unlock_eager failed");
    ls.Encrypt_on_lock.pages_encrypted
  in
  let pages = cycle () (* warm-up *) in
  let mw0 = Gc.minor_words () in
  let rounds = 8 in
  for _ = 1 to rounds do
    ignore (cycle ())
  done;
  let per_page = (Gc.minor_words () -. mw0) /. float_of_int (rounds * 2 * pages) in
  if per_page > 512.0 then
    Alcotest.failf "batched lock/unlock allocated %.1f minor words per page (ceiling 512)"
      per_page

(* -------------- run-granule memory path differential -------------- *)

(* [Machine.read_run_into]/[write_run_from] (the batch engine's
   memory path) against the per-chunk generic path on twin machines:
   same data, same clock, same L2 statistics. *)
let test_run_path_differential () =
  let mk () =
    let m = Machine.create ~seed:17 (Machine.tegra3 ~dram_size:(4 * Units.mib) ()) in
    Machine.enable_taint m;
    m
  in
  let m_run = mk () and m_gen = mk () in
  let base = (Machine.dram_region m_run).Memmap.base in
  let prng = Prng.create ~seed:23 in
  let buf = Bytes.create Page.size in
  for _ = 1 to 200 do
    let addr = base + (Prng.int prng 256 * 64) in
    let len = 64 + (Prng.int prng 16 * 64) in
    if Prng.int prng 2 = 0 then begin
      Machine.read_run_into m_run addr buf ~off:0 ~len;
      Machine.read_into m_gen addr buf ~off:0 ~len
    end
    else begin
      Bytes.fill buf 0 len (Char.chr (Prng.int prng 256));
      Machine.with_taint m_run Taint.Ciphertext (fun () ->
          Machine.write_run_from m_run addr buf ~off:0 ~len);
      Machine.with_taint m_gen Taint.Ciphertext (fun () ->
          Machine.write_from m_gen addr buf ~off:0 ~len)
    end
  done;
  let fp m =
    let s = Pl310.stats (Machine.l2 m) in
    ( Clock.now (Machine.clock m),
      Energy.total (Machine.energy m),
      (s.Pl310.hits, s.Pl310.misses, s.Pl310.writebacks, s.Pl310.bypasses),
      Digest.bytes (Dram.raw (Machine.dram m)),
      Option.map Digest.bytes (Dram.shadow (Machine.dram m)) )
  in
  checkb "run path = generic path" true (fp m_run = fp m_gen)

let () =
  Alcotest.run "sentry_core_batch"
    [
      ( "differential",
        [
          Alcotest.test_case "lock/unlock/faults" `Quick test_lock_unlock_differential;
          Alcotest.test_case "eager unlock" `Quick test_eager_differential;
          Alcotest.test_case "shuffled layout (semantic)" `Quick test_shuffled_semantic;
          Alcotest.test_case "attack verdicts" `Quick test_attack_verdicts_agree;
          Alcotest.test_case "run memory path" `Quick test_run_path_differential;
        ] );
      ( "journal",
        [
          Alcotest.test_case "coalesced roll-forward" `Quick test_journal_coalesced_roll_forward;
          Alcotest.test_case "clean run" `Quick test_journal_clean_run_recovers_nothing;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "fail-secure fault handler" `Quick test_fault_handler_fail_secure;
          Alcotest.test_case "eager DMA coherence" `Quick test_eager_dma_coherence;
        ] );
      ( "allocation",
        [ Alcotest.test_case "batched cycle ceiling" `Quick test_batch_allocation_ceiling ] );
    ]
