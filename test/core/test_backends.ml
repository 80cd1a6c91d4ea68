(* Cross-backend differential suite for the protection-backend
   interface ([Backend]).

   The three crypto backends — [Batched], [Per_page] and the
   MemShield-style [Offload] command queue — claim bit-identical
   simulated DRAM contents, taint shadows, PTE protection state and
   crypt counters after lock, after unlock and after every lazy fault,
   on both the fig2-style layout and a fleet-style multi-tenant mix.
   (Clock and energy legitimately differ for [Offload]: that is the
   point of the engine.)

   The MProtect-style [No_access] backend diverges exactly where
   designed: DRAM keeps cleartext while locked, so the cold-boot and
   DMA verdicts flip from "defence held" to "secret recovered", while
   the locked-state consistency audit still scores the mapping-revoked
   pages as protected.  Switching backends between cycles must leave
   no stranded protection state behind. *)

open Sentry_soc
open Sentry_kernel
open Sentry_core
module Checkers = Sentry_analysis.Checkers

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let secret = "FLEET-SECRET-4242424242424242!!"

(* ------------------------- twin harness -------------------------- *)

(* [`Fig2] is the three-app layout of the batch suite; [`Fleet] is a
   six-tenant mix with the fleet's class heterogeneity (large tenants
   carry a DMA region, small ones half-size regions). *)
let build ?(config = { (Config.default `Tegra3) with Config.track_taint = true })
    ?(layout = `Fig2) ~backend () =
  let system = System.boot ~seed:11 ~pid_base:1 `Tegra3 in
  let sentry = Sentry.install system config in
  Sentry.set_backend sentry backend;
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
  let procs =
    match layout with
    | `Fig2 ->
        [
          spawn_filled "mail" 8;
          spawn_filled "maps" 12 ~dma_pages:4;
          spawn_filled "wallet" 6;
        ]
    | `Fleet ->
        List.init 6 (fun i ->
            let name = Printf.sprintf "fleet%03d" i in
            match i mod 4 with
            | 0 -> spawn_filled name 16 ~dma_pages:2
            | 3 -> spawn_filled name 4
            | _ -> spawn_filled name 8)
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

(* Semantic fingerprint: DRAM contents, taint shadows, PTE protection
   state (including the no-access bit) and crypt counters.  Clock and
   energy are deliberately excluded — the offload engine's cost model
   differs by design. *)
type fp = {
  dram : Digest.t;
  shadow : Digest.t option;
  ptes : (int * int * int * bool * bool * bool * bool) list;
  crypt : int * int;
}

let fingerprint (system : System.t) sentry procs =
  let m = System.machine system in
  {
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
                    pte.Page_table.young,
                    pte.Page_table.no_access ))
                (Address_space.region_ptes proc.Process.aspace r))
            (Address_space.regions proc.Process.aspace))
        procs;
    crypt = Page_crypt.counters (Sentry.page_crypt sentry);
  }

let check_fp label (a : fp) (b : fp) =
  checkb (label ^ ": DRAM contents identical") true (a.dram = b.dram);
  checkb (label ^ ": taint shadows identical") true (a.shadow = b.shadow);
  checkb (label ^ ": PTE state identical") true (a.ptes = b.ptes);
  checkb (label ^ ": crypt counters identical") true (a.crypt = b.crypt)

(* ------------------ crypto backends: equivalence ------------------ *)

(* Batched / Per_page / Offload through a full lock → unlock → every
   lazy fault cycle: bit-identical semantic state at each stage. *)
let equivalence_cycle layout other =
  let lbl = Backend.kind_name other in
  let sys_b, sen_b, procs_b = build ~layout ~backend:Sentry.Batched () in
  let sys_o, sen_o, procs_o = build ~layout ~backend:other () in
  let ls_b = Sentry.lock sen_b and ls_o = Sentry.lock sen_o in
  checki (lbl ^ ": pages encrypted") ls_b.Encrypt_on_lock.pages_encrypted
    ls_o.Encrypt_on_lock.pages_encrypted;
  check_fp (lbl ^ " locked") (fingerprint sys_b sen_b procs_b)
    (fingerprint sys_o sen_o procs_o);
  (match (Sentry.unlock sen_b ~pin:"1234", Sentry.unlock sen_o ~pin:"1234") with
  | Ok us_b, Ok us_o ->
      checki (lbl ^ ": eager DMA pages") us_b.Decrypt_on_unlock.dma_pages_eager
        us_o.Decrypt_on_unlock.dma_pages_eager
  | _ -> Alcotest.fail "unlock failed");
  check_fp (lbl ^ " unlocked") (fingerprint sys_b sen_b procs_b)
    (fingerprint sys_o sen_o procs_o);
  touch_all sys_b procs_b;
  touch_all sys_o procs_o;
  check_fp (lbl ^ " after faults") (fingerprint sys_b sen_b procs_b)
    (fingerprint sys_o sen_o procs_o)

let test_crypto_backends_fig2 () =
  List.iter (equivalence_cycle `Fig2) [ Sentry.Per_page; Sentry.Offload ]

let test_crypto_backends_fleet () =
  List.iter (equivalence_cycle `Fleet) [ Sentry.Per_page; Sentry.Offload ]

(* The offload command queue must be fully drained by each walk's
   completion poll: nothing may stay in flight across calls, or the
   next walk's timing would depend on the previous one's leftovers. *)
let test_offload_queue_drained () =
  let _sys, sentry, _ = build ~backend:Sentry.Offload () in
  let engine = Page_crypt.engine (Sentry.page_crypt sentry) in
  ignore (Sentry.lock sentry);
  checki "queue drained after lock" 0 (Sentry_crypto.Offload_engine.depth engine);
  (match Sentry.unlock_eager sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock_eager failed");
  checki "queue drained after eager unlock" 0 (Sentry_crypto.Offload_engine.depth engine);
  let stats = Sentry_crypto.Offload_engine.stats engine in
  checki "every submit completed" stats.Sentry_crypto.Offload_engine.submitted
    stats.Sentry_crypto.Offload_engine.completed

(* A crashed offload lock walk rolls forward like the batched one: the
   command queue dies with the machine, recovery resets it and the
   journal-driven sweep finishes the pass. *)
let test_offload_crash_roll_forward () =
  let module Injector = Sentry_faults.Injector in
  let module Plan = Sentry_faults.Plan in
  let module Fault = Sentry_faults.Fault in
  let config = { (Config.default `Tegra3) with Config.track_taint = true; journal = true } in
  let sys, sentry, _ = build ~config ~backend:Sentry.Offload () in
  Injector.activate
    (Injector.create
       (Plan.make ~name:"mid-offload-lock"
          [
            Plan.trigger ~point:Injector.Points.page_encrypted ~kind:Fault.Power_loss
              ~at:(Plan.Nth 5);
          ]));
  (try ignore (Sentry.lock sentry) with Injector.Injected _ -> ());
  Injector.deactivate ();
  (match Sentry.recover sentry with
  | Some r ->
      checkb "rolled forward to Locked" true (r.Sentry.resumed = Sentry.Resumed_lock);
      checkb "recovery re-encrypted the tail" true (r.Sentry.pages_fixed > 0)
  | None -> Alcotest.fail "recovery did not run");
  checkb "device locked after recovery" true (Sentry.is_locked sentry);
  checkb "no cleartext for the cold-boot attack" false
    (Sentry_attacks.Cold_boot.succeeds (System.machine sys)
       Sentry_attacks.Cold_boot.Two_second_reset ~secret:(Bytes.of_string secret))

(* --------------- no-access: designed divergence ------------------- *)

(* Locking under [No_access] encrypts nothing: every sensitive PTE is
   mapping-revoked while the frames keep their cleartext (the walk's
   masked L2 flush still writes dirty lines back, as every backend's
   does), and the consistency audit still comes back clean — revoked
   pages count as protected even though they are cleartext. *)
let test_no_access_leaves_cleartext () =
  let sys, sentry, procs = build ~backend:Sentry.No_access () in
  let machine = System.machine sys in
  let stats = Sentry.lock sentry in
  checki "no bytes encrypted" 0 stats.Encrypt_on_lock.bytes_encrypted;
  checkb "lock fired per-page progress" true (stats.Encrypt_on_lock.pages_encrypted > 0);
  checkb "DRAM still holds the cleartext secret" true
    (Sentry_util.Bytes_util.contains
       (Dram.raw (Machine.dram machine))
       (Bytes.of_string secret));
  List.iter
    (fun (proc : Process.t) ->
      List.iter
        (fun r ->
          List.iter
            (fun (vpn, (pte : Page_table.pte)) ->
              if pte.Page_table.present then begin
                checkb (Printf.sprintf "pid %d vpn %d revoked" proc.Process.pid vpn) true
                  pte.Page_table.no_access;
                checkb
                  (Printf.sprintf "pid %d vpn %d not marked encrypted" proc.Process.pid vpn)
                  false pte.Page_table.encrypted
              end)
            (Address_space.region_ptes proc.Process.aspace r))
        (Address_space.regions proc.Process.aspace))
    procs;
  checki "audit scores revoked pages as protected" 0
    (List.length (Checkers.Locked_state_consistent.audit sentry))

(* The Table 3 flip: the same attacks whose defence holds under the
   crypto backends recover the secret under [No_access].  The cold
   boot uses the reflash variant (97.5% DRAM survival): the 2-second
   reset's remanence decay destroys even cleartext past the fuzzy
   matcher's threshold, which would mask the flip being tested. *)
let test_no_access_verdicts_flip () =
  let sec = Bytes.of_string secret in
  let attack backend =
    let sys, sentry, _ = build ~backend () in
    ignore (Sentry.lock sentry);
    let m = System.machine sys in
    ( Sentry_attacks.Cold_boot.succeeds m Sentry_attacks.Cold_boot.Device_reflash ~secret:sec,
      Sentry_attacks.Dma_attack.succeeds m ~secret:sec )
  in
  let cold_b, dma_b = attack Sentry.Batched in
  checkb "batched: cold boot defence holds" false cold_b;
  checkb "batched: DMA defence holds" false dma_b;
  let cold_n, dma_n = attack Sentry.No_access in
  checkb "no-access: cold boot recovers the secret" true cold_n;
  checkb "no-access: DMA recovers the secret" true dma_n

(* Unlock restores the mappings without any crypto, and the restored
   pages read back their original cleartext. *)
let test_no_access_unlock_restores () =
  let sys, sentry, procs = build ~backend:Sentry.No_access () in
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock failed");
  touch_all sys procs;
  List.iter
    (fun (proc : Process.t) ->
      List.iter
        (fun r ->
          List.iter
            (fun (vpn, (pte : Page_table.pte)) ->
              checkb (Printf.sprintf "pid %d vpn %d restored" proc.Process.pid vpn) false
                pte.Page_table.no_access)
            (Address_space.region_ptes proc.Process.aspace r))
        (Address_space.regions proc.Process.aspace))
    procs;
  checkb "cleartext readable after restore" true
    (Sentry_util.Bytes_util.contains
       (Dram.raw (Machine.dram (System.machine sys)))
       (Bytes.of_string secret))

(* ----------------- backend switches between cycles ---------------- *)

(* A lazy unlock leaves residual protection (encrypted or revoked
   pages) behind; switching backends while [Unlocked] must not strand
   it.  Crypto -> no-access: the no-access fault handler still
   decrypts residual ciphertext.  No-access -> crypto: the standard
   handler still clears residual revocations.  Each full cycle ends
   with every page readable and unprotected. *)
let test_backend_switch_no_stranded_state () =
  let sys, sentry, procs = build ~backend:Sentry.Batched () in
  let clean (label : string) =
    List.iter
      (fun (proc : Process.t) ->
        List.iter
          (fun r ->
            List.iter
              (fun (vpn, (pte : Page_table.pte)) ->
                checkb (Printf.sprintf "%s: pid %d vpn %d unprotected" label proc.Process.pid vpn)
                  false
                  (pte.Page_table.encrypted || pte.Page_table.no_access))
              (Address_space.region_ptes proc.Process.aspace r))
          (Address_space.regions proc.Process.aspace))
      procs;
    checkb (label ^ ": cleartext readable") true
      (Sentry_util.Bytes_util.contains
         (Dram.raw (Machine.dram (System.machine sys)))
         (Bytes.of_string secret))
  in
  let cycle backend =
    Sentry.set_backend sentry backend;
    ignore (Sentry.lock sentry);
    (match Sentry.unlock sentry ~pin:"1234" with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "unlock failed");
    (* the lazy residue from this cycle is faulted through the *next*
       backend's handler only after the switch below *)
    touch_all sys procs;
    clean ("after " ^ Backend.kind_name backend ^ " cycle")
  in
  (* lazy unlock, then switch with residue still in the PTEs: touch
     after the switch drives the new backend's handler over the old
     backend's leftovers *)
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock failed");
  Sentry.set_backend sentry Sentry.No_access;
  touch_all sys procs;
  clean "batched residue via no-access handler";
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlock failed");
  Sentry.set_backend sentry Sentry.Offload;
  touch_all sys procs;
  clean "no-access residue via offload handler";
  (* and full clean cycles under each backend still round-trip *)
  List.iter cycle [ Sentry.Offload; Sentry.No_access; Sentry.Batched ]

let () =
  Alcotest.run "sentry_core_backends"
    [
      ( "equivalence",
        [
          Alcotest.test_case "crypto backends, fig2 layout" `Quick test_crypto_backends_fig2;
          Alcotest.test_case "crypto backends, fleet layout" `Quick test_crypto_backends_fleet;
          Alcotest.test_case "offload queue drained" `Quick test_offload_queue_drained;
          Alcotest.test_case "offload crash roll-forward" `Quick
            test_offload_crash_roll_forward;
        ] );
      ( "no-access",
        [
          Alcotest.test_case "lock leaves cleartext" `Quick test_no_access_leaves_cleartext;
          Alcotest.test_case "attack verdicts flip" `Quick test_no_access_verdicts_flip;
          Alcotest.test_case "unlock restores mappings" `Quick test_no_access_unlock_restores;
        ] );
      ( "switching",
        [
          Alcotest.test_case "no stranded state" `Quick test_backend_switch_no_stranded_state;
        ] );
    ]
