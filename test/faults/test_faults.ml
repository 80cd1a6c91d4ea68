(** Fault-injection and crash-recovery suite.

    Three layers:
    - unit tests of the injector engine (occurrence matching,
      determinism, the disarmed fast path);
    - hook tests at each subsystem (DMA transfer faults, dm-crypt
      sector atomicity, DRAM bit flips);
    - the acceptance tests of the crash-consistent lock pipeline:
      power loss at {e every} page boundary of a lock pass, recovery,
      and the Table 2 cold-boot attacks against the result — plus the
      unlock-rollback and journal-less variants. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core
open Sentry_analysis
module Fault = Sentry_faults.Fault
module Plan = Sentry_faults.Plan
module Injector = Sentry_faults.Injector

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let one ~point ~kind ~at = Plan.make ~name:"test" [ Plan.trigger ~point ~kind ~at ]

(* Create and activate a session over [plan]; firings and occurrence
   counts read back off the returned handle. *)
let arm plan =
  let session = Injector.create plan in
  Injector.activate session;
  session

(* ------------------------------ injector -------------------------- *)

let test_disarmed_is_noop () =
  Injector.deactivate ();
  Injector.fire "anywhere";
  checkb "no poll result" true (Injector.poll "anywhere" = None);
  checkb "no active session" true (Injector.current () = None)

let test_nth_occurrence () =
  let session = arm (one ~point:"p" ~kind:Fault.Power_loss ~at:(Plan.Nth 3)) in
  Injector.fire "p";
  Injector.fire "q" (* different point: does not count toward "p" *);
  Injector.fire "p";
  (match Injector.fire "p" with
  | () -> Alcotest.fail "3rd arrival must raise"
  | exception Injector.Injected r ->
      checki "occurrence" 3 r.Injector.occurrence;
      checkb "kind" true (r.Injector.kind = Fault.Power_loss));
  checki "one firing recorded" 1 (List.length (Injector.fired_of session));
  checki "arrivals counted" 3 (Injector.occurrences_of session "p");
  Injector.deactivate ()

let test_every_occurrence () =
  let session = arm (one ~point:"d" ~kind:Fault.Dma_error ~at:(Plan.Every 2)) in
  checkb "1st clean" true (Injector.poll "d" = None);
  checkb "2nd faults" true (Injector.poll "d" <> None);
  checkb "3rd clean" true (Injector.poll "d" = None);
  checkb "4th faults" true (Injector.poll "d" <> None);
  checki "two firings" 2 (List.length (Injector.fired_of session));
  Injector.deactivate ()

let test_prob_deterministic () =
  let plan = Plan.make ~name:"coin" ~seed:7
      [ Plan.trigger ~point:"c" ~kind:Fault.Dma_error ~at:(Plan.Prob 0.5) ]
  in
  let pattern () =
    ignore (arm plan);
    let hits = List.init 64 (fun _ -> Injector.poll "c" <> None) in
    Injector.deactivate ();
    hits
  in
  let a = pattern () and b = pattern () in
  checkb "same seed, same firings" true (a = b);
  checkb "some fired" true (List.mem true a);
  checkb "some did not" true (List.mem false a)

let test_bit_flip_invokes_handler_and_continues () =
  let session = arm (one ~point:"w" ~kind:(Fault.Bit_flip 4) ~at:(Plan.Every 1)) in
  let calls = ref 0 and bits_seen = ref 0 in
  Injector.set_bit_flip_handler_of session (fun ~point:_ ~bits ->
      incr calls;
      bits_seen := bits);
  Injector.fire "w";
  Injector.fire "w";
  checki "handler per firing" 2 !calls;
  checki "bit count through" 4 !bits_seen;
  checki "firings recorded" 2 (List.length (Injector.fired_of session));
  Injector.deactivate ()

(** The explicit-handle surface: firings and occurrence counts stay
    readable off the session after deactivation, and two sessions over
    the same plan are independent. *)
let test_session_handle_api () =
  let plan = one ~point:"s" ~kind:Fault.Dma_error ~at:(Plan.Every 2) in
  let s1 = Injector.create plan in
  checkb "plan threads through" true (Injector.plan_of s1 == plan);
  Injector.activate s1;
  checkb "activation shows as current" true (Injector.current () <> None);
  checkb "1st clean" true (Injector.poll "s" = None);
  checkb "2nd faults" true (Injector.poll "s" <> None);
  Injector.deactivate ();
  checkb "deactivated" true (Injector.current () = None);
  (* the session outlives deactivation: results read off the handle *)
  checki "firings on handle" 1 (List.length (Injector.fired_of s1));
  checki "arrivals on handle" 2 (Injector.occurrences_of s1 "s");
  (* a second session over the same plan starts from scratch *)
  let s2 = Injector.create plan in
  Injector.activate s2;
  checkb "fresh occurrence counter" true (Injector.poll "s" = None);
  Injector.deactivate ();
  checki "s1 untouched" 1 (List.length (Injector.fired_of s1));
  checki "s2 independent" 0 (List.length (Injector.fired_of s2))

(* The active-session slot is [Domain.DLS]: a fresh domain starts
   disarmed even while the spawner has a session active, a worker's
   activate stays its own, and firings land on the worker's session
   handle only — the isolation each fleet shard's fault session
   relies on. *)
let test_session_domain_local () =
  let s_main = Injector.create (one ~point:"m" ~kind:Fault.Dma_error ~at:(Plan.Nth 1)) in
  Injector.activate s_main;
  Fun.protect ~finally:Injector.deactivate (fun () ->
      let worker =
        Domain.spawn (fun () ->
            let inherited = Injector.current () <> None in
            let mine = Injector.create (one ~point:"w" ~kind:Fault.Dma_error ~at:(Plan.Nth 1)) in
            Injector.activate mine;
            let fired_here = Injector.poll "w" <> None in
            Injector.deactivate ();
            (inherited, fired_here, List.length (Injector.fired_of mine)))
      in
      let inherited, fired_here, worker_firings = Domain.join worker in
      checkb "fresh domain starts disarmed" false inherited;
      checkb "worker session fires in its domain" true fired_here;
      checki "firings on the worker handle" 1 worker_firings;
      checkb "main session still active" true
        (match Injector.current () with Some x -> x == s_main | None -> false);
      checki "main session saw nothing" 0 (List.length (Injector.fired_of s_main)))

(* --------------------------- subsystem hooks ---------------------- *)

let test_dma_transfer_fault () =
  let machine = Machine.create (Machine.nexus4 ()) in
  let addr = (Dram.region (Machine.dram machine)).Memmap.base in
  ignore (arm (one ~point:Injector.Points.dma_read ~kind:Fault.Dma_error ~at:(Plan.Every 1)));
  (match Dma.read (Machine.dma machine) ~addr ~len:16 with
  | Error Dma.Faulted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Faulted");
  Injector.deactivate ();
  (* disarmed: same transfer goes through *)
  match Dma.read (Machine.dma machine) ~addr ~len:16 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean transfer must succeed"

let test_dma_write_fault () =
  let machine = Machine.create (Machine.nexus4 ()) in
  let addr = (Dram.region (Machine.dram machine)).Memmap.base in
  ignore (arm (one ~point:Injector.Points.dma_write ~kind:Fault.Dma_error ~at:(Plan.Nth 1)));
  (match Dma.write (Machine.dma machine) ~addr (Bytes.make 16 'x') with
  | Error Dma.Faulted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Faulted");
  Injector.deactivate ()

let test_reset_mid_dmcrypt_leaves_target_untouched () =
  let machine = Machine.create (Machine.tegra3 ~dram_size:(4 * Units.mib) ()) in
  let frames =
    Frame_alloc.create machine
      ~region:(Memmap.region ~base:(Dram.region (Machine.dram machine)).Memmap.base
                 ~size:(1 * Units.mib))
  in
  let api = Sentry_crypto.Crypto_api.create () in
  let g =
    Sentry_crypto.Generic_aes.create machine ~ctx_base:(Frame_alloc.alloc frames)
      ~variant:Sentry_crypto.Perf.Crypto_api_kernel
  in
  Sentry_crypto.Generic_aes.register g api;
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(64 * Units.kib) in
  let dm = Dm_crypt.create ~api ~key:(Bytes.make 16 'k') (Block_dev.target dev) in
  let before = Bytes.copy (Block_dev.raw dev) in
  ignore (arm (one ~point:Injector.Points.dm_crypt_sector ~kind:Fault.Reset ~at:(Plan.Nth 1)));
  (match Blockio.write (Dm_crypt.target dm) ~off:0 (Bytes.make 512 'S') with
  | () -> Alcotest.fail "sector write must be interrupted"
  | exception Injector.Injected _ -> ());
  Injector.deactivate ();
  (* sector ops are atomic at the lower target: the interrupted write
     must not have reached the device at all *)
  checkb "medium untouched" true (Bytes.equal before (Block_dev.raw dev))

let test_bit_flips_corrupt_dram () =
  let machine = Machine.create (Machine.nexus4 ()) in
  let base = (Dram.region (Machine.dram machine)).Memmap.base in
  let session =
    arm (one ~point:Injector.Points.machine_write ~kind:(Fault.Bit_flip 8) ~at:(Plan.Every 1))
  in
  Injector.set_bit_flip_handler_of session (Fault_scenario.bit_flip_handler machine);
  for i = 0 to 15 do
    Machine.write machine (base + (i * 64)) (Bytes.make 64 '\x00')
  done;
  let firings = List.length (Injector.fired_of session) in
  Injector.deactivate ();
  checkb "flips fired" true (firings >= 16);
  (* 8 random flips per store over a small DRAM: some corruption must
     be visible somewhere *)
  let raw = Dram.raw (Machine.dram machine) in
  let corrupted = ref false in
  Bytes.iter (fun c -> if c <> '\x00' && c <> '\xff' then corrupted := true) raw;
  ignore !corrupted (* flips may land on already-0x00/0xff bytes; the firing count is the real assertion *)

(* ----------------------- crash-consistent pipeline ----------------- *)

let fresh_sentry () =
  let system = System.boot `Nexus4 ~seed:42 ~pid_base:1 in
  let config = { (Config.default `Nexus4) with Config.track_taint = true; journal = true } in
  let sentry = Sentry.install system config in
  let app = Fault_scenario.spawn_workload system sentry in
  (system, sentry, app)

(** The convergence fingerprint: every PTE's (vpn, present, encrypted,
    young) plus the process run state. *)
let pte_snapshot (app : Process.t) =
  Address_space.regions app.Process.aspace
  |> List.concat_map (fun r ->
         Address_space.region_ptes app.Process.aspace r
         |> List.map (fun (vpn, pte) ->
                ( vpn,
                  pte.Page_table.present,
                  pte.Page_table.encrypted,
                  pte.Page_table.young )))

(** Reference: an uninterrupted lock over the same workload. *)
let reference () =
  let _, sentry, app = fresh_sentry () in
  let stats = Sentry.lock sentry in
  (stats.Encrypt_on_lock.pages_encrypted, pte_snapshot app, app.Process.state)

let check_converged ~ref_ptes ~ref_state sentry (app : Process.t) =
  checkb "device locked" true (Sentry.state sentry = Lock_state.Locked);
  checkb "PTEs converge to uninterrupted lock" true (pte_snapshot app = ref_ptes);
  checkb "parking converges" true (app.Process.state = ref_state);
  checki "locked-state audit clean" 0
    (List.length (Checkers.Locked_state_consistent.audit sentry))

(** The tentpole acceptance test: kill the lock walk with power loss
    after the Nth encrypted page, for {e every} N, recover, and mount
    each Table 2 cold-boot variant against the result.  The secret
    must never be recoverable and the final state must equal the
    uninterrupted lock's. *)
let test_power_loss_every_page_boundary () =
  let total, ref_ptes, ref_state = reference () in
  checkb "workload big enough to matter" true (total >= 12);
  List.iter
    (fun variant ->
      for k = 1 to total do
        let system, sentry, app = fresh_sentry () in
        let machine = System.machine system in
        ignore
          (arm (one ~point:Injector.Points.page_encrypted ~kind:Fault.Power_loss ~at:(Plan.Nth k)));
        (match Sentry.lock sentry with
        | (_ : Encrypt_on_lock.stats) ->
            Alcotest.failf "lock survived injected power loss at page %d" k
        | exception Injector.Injected _ -> ());
        Injector.deactivate ();
        Machine.reboot machine (Machine.Hard_reset 2.0);
        (match Sentry.recover sentry with
        | None -> Alcotest.fail "recover must see the interrupted lock"
        | Some r ->
            checkb "rolled forward" true (r.Sentry.resumed = Sentry.Resumed_lock);
            checkb "rekeyed after power loss" true r.Sentry.rekeyed);
        check_converged ~ref_ptes ~ref_state sentry app;
        checkb
          (Printf.sprintf "no secret via %s after crash at page %d"
             (Sentry_attacks.Cold_boot.variant_name variant)
             k)
          false
          (Sentry_attacks.Cold_boot.succeeds machine variant ~secret:Fault_scenario.secret)
      done)
    [
      Sentry_attacks.Cold_boot.Os_reboot;
      Sentry_attacks.Cold_boot.Device_reflash;
      Sentry_attacks.Cold_boot.Two_second_reset;
    ]

(** The harder remanence case: a watchdog reset (warm — DRAM fully
    survives) mid-walk.  Whatever was still cleartext at the crash is
    sitting intact in DRAM; recovery must encrypt it before the
    attacker images memory. *)
let test_warm_reset_every_page_boundary () =
  let total, ref_ptes, ref_state = reference () in
  for k = 1 to total do
    let system, sentry, app = fresh_sentry () in
    let machine = System.machine system in
    ignore (arm (one ~point:Injector.Points.page_encrypted ~kind:Fault.Reset ~at:(Plan.Nth k)));
    (match Sentry.lock sentry with
    | (_ : Encrypt_on_lock.stats) -> Alcotest.failf "lock survived injected reset at page %d" k
    | exception Injector.Injected _ -> ());
    Injector.deactivate ();
    Machine.reboot machine Machine.Warm;
    (match Sentry.recover sentry with
    | None -> Alcotest.fail "recover must see the interrupted lock"
    | Some r ->
        checkb "no rekey on warm reboot" false r.Sentry.rekeyed;
        checkb "journal survived warm reboot" true (r.Sentry.journal_entry <> None);
        (match r.Sentry.journal_entry with
        | Some e ->
            checkb "journal pass" true (e.Lock_journal.pass = Lock_journal.Lock_pass);
            (* the hook fires after page k's commit (ciphertext, PTE
               flag, journal record), so a crash at page k leaves k
               pages complete — of which the coalesced journal (one
               record write per [Lock_journal.coalesce] pages) had
               persisted the last full group *)
            checki "journal page count"
              (k / Lock_journal.coalesce * Lock_journal.coalesce)
              e.Lock_journal.pages_done
        | None -> ()));
    check_converged ~ref_ptes ~ref_state sentry app;
    checkb "no secret via OS reboot" false
      (Sentry_attacks.Cold_boot.succeeds machine Sentry_attacks.Cold_boot.Os_reboot
         ~secret:Fault_scenario.secret)
  done

(** The coalesced-journal blind spot: [Lock_journal.record_batch]
    writes one record per [Lock_journal.coalesce] pages, so a crash
    at page boundary k strictly inside a group leaves up to
    [coalesce - 1] committed pages the journal never counted.
    Roll-forward must treat those tail pages — and the boundary page
    itself — as done: re-encrypting any of them would double-encrypt,
    garbling the page for good under the surviving key.  The scenario
    where that data loss is observable is a {e software} crash of the
    lock walk (the daemon dies, the machine does not reboot): memory
    and caches survive intact, so after recovery every byte must
    still be accounted for.  (Reboot variants lose unflushed dirty L2
    lines by design — the every-page-boundary tests above cover their
    security, but content equality is only meaningful here.)  Proven
    the strong way: every workload frame's ciphertext after recovery,
    and its plaintext after a post-recovery unlock, must be
    bit-identical to an uninterrupted twin. *)

(** Current bytes of every present workload page through the machine's
    coherent view (cache included — ciphertext written during a lock
    sits in dirty L2 lines until the masked flush). *)
let frame_bytes machine (app : Process.t) =
  Address_space.regions app.Process.aspace
  |> List.concat_map (fun r ->
         Address_space.region_ptes app.Process.aspace r
         |> List.filter_map (fun (vpn, pte) ->
                if pte.Page_table.present then begin
                  let buf = Bytes.create Page.size in
                  Machine.read_into machine pte.Page_table.frame buf ~off:0 ~len:Page.size;
                  Some (vpn, buf)
                end
                else None))

let touch_everything system (app : Process.t) =
  List.iter
    (fun region ->
      for i = 0 to region.Address_space.npages - 1 do
        Vm.touch system.System.vm app ~vaddr:(region.Address_space.vstart + (i * Page.size))
      done)
    (Address_space.regions app.Process.aspace)

let test_mid_batch_tail_idempotent () =
  let plaintext, ciphertext, total =
    let system, sentry, app = fresh_sentry () in
    let machine = System.machine system in
    let plaintext = frame_bytes machine app in
    let stats = Sentry.lock sentry in
    (plaintext, frame_bytes machine app, stats.Encrypt_on_lock.pages_encrypted)
  in
  checkb "crash points sit strictly inside a coalesce group" true
    (total >= Lock_journal.coalesce + 4);
  let check_pages name k expected got =
    List.iter2
      (fun (vpn, b) (vpn', b') ->
        checki "page sets align" vpn vpn';
        checkb (Printf.sprintf "%s of page %d bit-identical (crash at %d)" name vpn k) true
          (Bytes.equal b b'))
      expected got
  in
  (* k = 5, 6, 7 with coalesce = 4: one full group journaled, then
     1..3 committed tail pages inside the journal's blind spot *)
  List.iter
    (fun k ->
      let system, sentry, app = fresh_sentry () in
      let machine = System.machine system in
      ignore (arm (one ~point:Injector.Points.page_encrypted ~kind:Fault.Reset ~at:(Plan.Nth k)));
      (match Sentry.lock sentry with
      | (_ : Encrypt_on_lock.stats) -> Alcotest.failf "lock survived injected reset at page %d" k
      | exception Injector.Injected _ -> ());
      Injector.deactivate ();
      (match Sentry.recover sentry with
      | None -> Alcotest.fail "recover must see the interrupted lock"
      | Some r ->
          checkb "rolled forward" true (r.Sentry.resumed = Sentry.Resumed_lock);
          checkb "software crash keeps the key" false r.Sentry.rekeyed;
          (match r.Sentry.journal_entry with
          | Some e ->
              checki "journal under-counts to the last full group"
                (k / Lock_journal.coalesce * Lock_journal.coalesce)
                e.Lock_journal.pages_done
          | None -> Alcotest.fail "journal entry missing");
          (* committed pages — journaled or not — are never redone *)
          checki "recovery re-encrypts exactly the untransformed pages" (total - k)
            r.Sentry.pages_fixed);
      checkb "device locked" true (Sentry.state sentry = Lock_state.Locked);
      (* ciphertext converges bit-for-bit: a double-encrypted tail or
         boundary page would diverge right here *)
      check_pages "ciphertext" k ciphertext (frame_bytes machine app);
      (* and the data survives the crash: unlock + touch restores the
         exact pre-lock plaintext (double-encrypt would decrypt to
         garbage instead) *)
      (match Sentry.unlock sentry ~pin:(Sentry.config sentry).Config.pin with
      | Ok (_ : Decrypt_on_unlock.stats) -> ()
      | Error _ -> Alcotest.fail "post-recovery unlock failed");
      touch_everything system app;
      check_pages "plaintext" k plaintext (frame_bytes machine app))
    [ 5; 6; 7 ]

(** Crash mid-transform (before the ciphertext write-back): the page
    is still cleartext and its PTE still says so — recovery must
    re-encrypt it, not trust a half-done transform. *)
let test_reset_mid_frame_transform () =
  let _, ref_ptes, ref_state = reference () in
  let system, sentry, app = fresh_sentry () in
  let machine = System.machine system in
  ignore (arm (one ~point:Injector.Points.frame_transform ~kind:Fault.Reset ~at:(Plan.Nth 5)));
  (match Sentry.lock sentry with
  | (_ : Encrypt_on_lock.stats) -> Alcotest.fail "lock survived mid-transform reset"
  | exception Injector.Injected _ -> ());
  Injector.deactivate ();
  Machine.reboot machine Machine.Warm;
  (match Sentry.recover sentry with
  | None -> Alcotest.fail "recover must run"
  | Some r ->
      (* 4 pages were fully encrypted before the 5th transform died —
         exactly one full coalesce group, so the journal persisted all
         of them *)
      checki "journal saw 4 pages" 4
        (match r.Sentry.journal_entry with Some e -> e.Lock_journal.pages_done | None -> -1));
  check_converged ~ref_ptes ~ref_state sentry app;
  checkb "no secret" false
    (Sentry_attacks.Cold_boot.succeeds machine Sentry_attacks.Cold_boot.Os_reboot
       ~secret:Fault_scenario.secret)

(** Crash mid-unlock: the eager DMA decrypt dies after the 2nd page.
    Recovery must re-encrypt what was decrypted and roll the state
    machine back to Locked without counting an unlock. *)
let test_unlock_rollback () =
  let _, ref_ptes, ref_state = reference () in
  let system, sentry, app = fresh_sentry () in
  let machine = System.machine system in
  ignore (Sentry.lock sentry);
  ignore (arm (one ~point:Injector.Points.page_decrypted ~kind:Fault.Reset ~at:(Plan.Nth 2)));
  (match Sentry.unlock sentry ~pin:(Sentry.config sentry).Config.pin with
  | Ok _ | Error _ -> Alcotest.fail "unlock survived injected reset"
  | exception Injector.Injected _ -> ());
  Injector.deactivate ();
  Machine.reboot machine Machine.Warm;
  (match Sentry.recover sentry with
  | None -> Alcotest.fail "recover must see the interrupted unlock"
  | Some r ->
      checkb "rolled back" true (r.Sentry.resumed = Sentry.Rolled_back_unlock);
      checkb "re-encrypted the decrypted pages" true (r.Sentry.pages_fixed >= 2));
  check_converged ~ref_ptes ~ref_state sentry app;
  let locks, unlocks, _ = Lock_state.counts (Sentry.lock_state sentry) in
  checki "one lock" 1 locks;
  checki "aborted unlock not counted" 0 unlocks;
  checkb "no secret" false
    (Sentry_attacks.Cold_boot.succeeds machine Sentry_attacks.Cold_boot.Os_reboot
       ~secret:Fault_scenario.secret);
  (* and the device still unlocks cleanly afterwards *)
  match Sentry.unlock sentry ~pin:(Sentry.config sentry).Config.pin with
  | Ok _ -> checkb "unlocked" true (Sentry.state sentry = Lock_state.Unlocked)
  | Error _ -> Alcotest.fail "post-recovery unlock failed"

(** Recovery with no journal at all — both the [Config.journal = false]
    case and the firmware-cleared-record case collapse to the same
    Lock_state-keyed sweep, which must converge by itself. *)
let test_recovery_without_journal () =
  let _, ref_ptes, ref_state = reference () in
  let system = System.boot `Nexus4 ~seed:42 ~pid_base:1 in
  let config = { (Config.default `Nexus4) with Config.track_taint = true; journal = false } in
  let sentry = Sentry.install system config in
  let app = Fault_scenario.spawn_workload system sentry in
  checkb "journal off" false (Sentry.journal_enabled sentry);
  let machine = System.machine system in
  ignore (arm (one ~point:Injector.Points.page_encrypted ~kind:Fault.Power_loss ~at:(Plan.Nth 6)));
  (match Sentry.lock sentry with
  | (_ : Encrypt_on_lock.stats) -> Alcotest.fail "lock survived"
  | exception Injector.Injected _ -> ());
  Injector.deactivate ();
  Machine.reboot machine (Machine.Hard_reset 2.0);
  (match Sentry.recover sentry with
  | None -> Alcotest.fail "recover must run without a journal"
  | Some r -> checkb "no journal entry" true (r.Sentry.journal_entry = None));
  check_converged ~ref_ptes ~ref_state sentry app

(** Journal allocation when iRAM has no room: the exact expression
    [Sentry.install] uses must yield [None] (graceful fallback to the
    journal-less pipeline), never an exception. *)
let test_journal_alloc_exhaustion_graceful () =
  let a = Iram_alloc.create_range ~base:0x40010000 ~limit:(0x40010000 + 16) in
  checkb "16 B of iRAM: no record" true (Iram_alloc.alloc a ~bytes:Lock_journal.size_bytes = None);
  (* with room for exactly one record, the journal fits and a second
     does not — the allocator stays well-behaved either way *)
  let b = Iram_alloc.create_range ~base:0x40010000 ~limit:(0x40010000 + Lock_journal.size_bytes) in
  checkb "32 B: record fits" true (Iram_alloc.alloc b ~bytes:Lock_journal.size_bytes <> None);
  checkb "second record: graceful None" true
    (Iram_alloc.alloc b ~bytes:Lock_journal.size_bytes = None)

(** A stale journal record (crash after the walk finished, before
    commit… or a record left by a completed pass) is cleared by a
    recover on a consistent system, which otherwise does nothing. *)
let test_recover_noop_when_consistent () =
  let _, sentry, _ = fresh_sentry () in
  checkb "nothing to recover when unlocked" true (Sentry.recover sentry = None);
  ignore (Sentry.lock sentry);
  checkb "nothing to recover when locked" true (Sentry.recover sentry = None)

(* ------------------------- canned scenarios ------------------------ *)

let test_canned_plans_survive () =
  List.iter
    (fun (name, plan) ->
      let o = Fault_scenario.run plan in
      checkb (name ^ ": ends locked, consistent, nothing recoverable") true
        (Fault_scenario.survived o))
    Fault_scenario.plans

let test_canned_plan_lookup () =
  checkb "known plan" true (Fault_scenario.find_plan "power-loss-mid-lock" <> None);
  checkb "unknown plan" true (Fault_scenario.find_plan "no-such-plan" = None);
  checki "plan inventory" 6 (List.length Fault_scenario.plan_names)

(* ------------------------------ main ------------------------------ *)

let () =
  Alcotest.run "sentry_faults"
    [
      ( "injector",
        [
          Alcotest.test_case "disarmed noop" `Quick test_disarmed_is_noop;
          Alcotest.test_case "nth occurrence" `Quick test_nth_occurrence;
          Alcotest.test_case "every occurrence" `Quick test_every_occurrence;
          Alcotest.test_case "prob deterministic" `Quick test_prob_deterministic;
          Alcotest.test_case "bit flip handler" `Quick test_bit_flip_invokes_handler_and_continues;
          Alcotest.test_case "session handle api" `Quick test_session_handle_api;
          Alcotest.test_case "session is domain-local" `Quick test_session_domain_local;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "dma read faults" `Quick test_dma_transfer_fault;
          Alcotest.test_case "dma write faults" `Quick test_dma_write_fault;
          Alcotest.test_case "dm-crypt sector atomic" `Quick
            test_reset_mid_dmcrypt_leaves_target_untouched;
          Alcotest.test_case "bit flips land in dram" `Quick test_bit_flips_corrupt_dram;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "power loss at every page boundary" `Slow
            test_power_loss_every_page_boundary;
          Alcotest.test_case "warm reset at every page boundary" `Slow
            test_warm_reset_every_page_boundary;
          Alcotest.test_case "mid-batch tail idempotent" `Quick test_mid_batch_tail_idempotent;
          Alcotest.test_case "reset mid frame transform" `Quick test_reset_mid_frame_transform;
          Alcotest.test_case "unlock rollback" `Quick test_unlock_rollback;
          Alcotest.test_case "recovery without journal" `Quick test_recovery_without_journal;
          Alcotest.test_case "journal alloc exhaustion" `Quick
            test_journal_alloc_exhaustion_graceful;
          Alcotest.test_case "recover noop when consistent" `Quick
            test_recover_noop_when_consistent;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "canned plans survive" `Slow test_canned_plans_survive;
          Alcotest.test_case "plan lookup" `Quick test_canned_plan_lookup;
        ] );
    ]
