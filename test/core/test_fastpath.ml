(* Differential tests for the page-granular crypto pipeline: the
   frame paths reuse one staging buffer per [Page_crypt.t] and the
   in-place bulk cipher; ciphertext, taint relabelling and allocation
   behaviour must all hold. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

let check_bytes = Alcotest.(check bytes)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0)) (* exact: bit-identity, not tolerance *)

let key = Bytes.of_string "sixteen byte key"

let boot () = Machine.create ~seed:33 (Machine.tegra3 ~dram_size:(8 * Units.mib) ())

let mk_pc m =
  let aes =
    Sentry_crypto.Aes_on_soc.create m ~storage:Sentry_crypto.Aes_on_soc.In_iram
      ~base:(Machine.iram_region m).Memmap.base ~key
  in
  Page_crypt.create m ~aes ~volatile_key:key

(* [encrypt_frame] (in-place over the reused staging buffer) must
   produce exactly the ciphertext [encrypt_bytes] (allocating) derives
   for the same (pid, vpn). *)
let test_frame_matches_bytes () =
  let m = boot () in
  let pc = mk_pc m in
  let frame = (Machine.dram_region m).Memmap.base + (4 * Page.size) in
  let plain = Bytes.init Page.size (fun i -> Char.chr ((i * 13) land 0xff)) in
  Machine.write m frame plain;
  let expected = Page_crypt.encrypt_bytes pc ~pid:7 ~vpn:42 plain in
  Page_crypt.encrypt_frame pc ~pid:7 ~vpn:42 ~frame;
  check_bytes "frame ciphertext = bytes ciphertext" expected (Machine.read m frame Page.size);
  Page_crypt.decrypt_frame pc ~pid:7 ~vpn:42 ~frame;
  check_bytes "frame roundtrip" plain (Machine.read m frame Page.size)

(* Consecutive frames through the same [t] must not contaminate each
   other via the shared staging buffer. *)
let test_frames_independent () =
  let m = boot () in
  let pc = mk_pc m in
  let base = (Machine.dram_region m).Memmap.base in
  let f1 = base + (4 * Page.size) and f2 = base + (5 * Page.size) in
  let p1 = Bytes.make Page.size 'x' and p2 = Bytes.make Page.size 'y' in
  Machine.write m f1 p1;
  Machine.write m f2 p2;
  Page_crypt.encrypt_frame pc ~pid:1 ~vpn:1 ~frame:f1;
  Page_crypt.encrypt_frame pc ~pid:1 ~vpn:2 ~frame:f2;
  Page_crypt.decrypt_frame pc ~pid:1 ~vpn:2 ~frame:f2;
  Page_crypt.decrypt_frame pc ~pid:1 ~vpn:1 ~frame:f1;
  check_bytes "frame 1 intact" p1 (Machine.read m f1 Page.size);
  check_bytes "frame 2 intact" p2 (Machine.read m f2 Page.size)

(* The lock path declassifies: after [encrypt_frame] the frame's bytes
   carry [Ciphertext]; after [decrypt_frame] they are secret cleartext
   again. *)
let test_frame_taint_relabel () =
  let m = boot () in
  Machine.enable_taint m;
  let pc = mk_pc m in
  let frame = (Machine.dram_region m).Memmap.base + (4 * Page.size) in
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      Machine.write m frame (Bytes.make Page.size 's'));
  Page_crypt.encrypt_frame pc ~pid:3 ~vpn:9 ~frame;
  Alcotest.(check bool) "ciphertext label" true (Machine.taint_of m frame Page.size = Taint.Ciphertext);
  Page_crypt.decrypt_frame pc ~pid:3 ~vpn:9 ~frame;
  Alcotest.(check bool) "cleartext label" true
    (Machine.taint_of m frame Page.size = Taint.Secret_cleartext)

(* Allocation regression for the whole lock-path pipeline: encrypting
   a frame (cached read + in-place CBC + cached write) must stay far
   below the old cost (~45k minor words per page); the fast path
   allocates a few dozen words at most (trace-off guards, IRQ
   bracket). *)
let test_encrypt_frame_allocation_ceiling () =
  let m = boot () in
  let pc = mk_pc m in
  let frame = (Machine.dram_region m).Memmap.base + (4 * Page.size) in
  Machine.write m frame (Bytes.make Page.size 'p');
  Page_crypt.encrypt_frame pc ~pid:2 ~vpn:5 ~frame (* warm-up *);
  let mw0 = Gc.minor_words () in
  for _ = 1 to 32 do
    Page_crypt.encrypt_frame pc ~pid:2 ~vpn:5 ~frame
  done;
  let per_page = (Gc.minor_words () -. mw0) /. 32.0 in
  if per_page > 512.0 then
    Alcotest.failf "encrypt_frame allocated %.1f minor words per page (ceiling 512)" per_page

(* The per-page write-back labels its store without a closure: a
   warm single-page decrypt ([Page_crypt.decrypt_page], the lazy
   fault's transform) allocates nothing with tracing off. *)
let test_decrypt_page_allocation_ceiling () =
  let m = boot () in
  let pc = mk_pc m in
  let frame = (Machine.dram_region m).Memmap.base + (4 * Page.size) in
  Machine.write m frame (Bytes.make Page.size 'p');
  let page () = Page_crypt.decrypt_page ~backend:Backend.Batched pc ~pid:2 ~vpn:5 ~frame in
  page () (* warm-up *);
  let mw0 = Gc.minor_words () in
  for _ = 1 to 32 do
    page ()
  done;
  let words = Gc.minor_words () -. mw0 in
  if words > 0.0 then
    Alcotest.failf "decrypt_page allocated %.0f minor words over 32 pages (ceiling 0)" words

(* The journal rebuilds its one record in a buffer it owns: a pass of
   [begin_pass], coalesced [record_batch] writes and [commit]
   allocates nothing. *)
let test_journal_allocation_ceiling () =
  let m = boot () in
  let j = Lock_journal.create m ~addr:((Machine.iram_region m).Memmap.base + 0x8000) in
  let pass () =
    Lock_journal.begin_pass j Lock_journal.Lock_pass ~pid:7;
    for _ = 1 to 8 do
      Lock_journal.record_batch j ~pid:7 ~pages:Lock_journal.coalesce
    done;
    Lock_journal.commit j
  in
  pass () (* warm-up *);
  let mw0 = Gc.minor_words () in
  for _ = 1 to 16 do
    pass ()
  done;
  let words = Gc.minor_words () -. mw0 in
  if words > 0.0 then
    Alcotest.failf "journal passes allocated %.0f minor words over 16 passes (ceiling 0)" words;
  (* the reused buffer still writes a whole, valid record *)
  Lock_journal.begin_pass j Lock_journal.Unlock_pass ~pid:9;
  Lock_journal.record_batch j ~pid:9 ~pages:3;
  match Lock_journal.load j with
  | Some { Lock_journal.pass = Lock_journal.Unlock_pass; pid = 9; pages_done = 3 } -> ()
  | _ -> Alcotest.fail "journal record does not read back"

(* A fault raised inside the write-back's store (a crash between
   kernel stores, at [machine.write]) unwinds through the labelled
   write: the machine's ambient label must be the one in place
   before the page transform, not the write-back's. *)
let test_write_back_fault_keeps_label () =
  let module Injector = Sentry_faults.Injector in
  let module Plan = Sentry_faults.Plan in
  let m = boot () in
  Machine.enable_taint m;
  let pc = mk_pc m in
  let frame = (Machine.dram_region m).Memmap.base + (4 * Page.size) in
  Machine.write m frame (Bytes.make Page.size 'p');
  let plan =
    Plan.make ~name:"write-back"
      [
        Plan.trigger ~point:Injector.Points.machine_write ~kind:Sentry_faults.Fault.Reset
          ~at:(Plan.Nth 1);
      ]
  in
  Machine.with_taint m Taint.Ciphertext (fun () ->
      Injector.activate (Injector.create plan);
      let raised =
        match Page_crypt.decrypt_page ~backend:Backend.Batched pc ~pid:2 ~vpn:5 ~frame with
        | () -> false
        | exception Injector.Injected _ -> true
      in
      Injector.deactivate ();
      Alcotest.(check bool) "the write-back faulted" true raised;
      Alcotest.(check bool)
        "previous ambient label in place" true
        (Machine.ambient_taint m = Taint.Ciphertext));
  Alcotest.(check bool) "outer label restored" true (Machine.ambient_taint m = Taint.Public)

(* An unlock decrypts a DMA region eagerly and then runs the coherence
   sweep ([Pl310.clean_invalidate_range]).  With a bus monitor attached
   the L2 takes its observed paths (write-backs through [Dram], bus
   transactions delivered), without one its in-place accounting; both
   runs must reach the same simulated clock, energy total and
   categories, and bus statistics, and the monitor must see the L2's
   write-backs. *)
let test_dma_unlock_monitor_invariant () =
  let run ~monitor =
    let system = System.boot `Tegra3 ~seed:5 in
    let sentry = Sentry.install system (Config.default `Tegra3) in
    let machine = System.machine system in
    let proc = System.spawn system ~name:"gpuapp" ~bytes:(16 * Units.kib) in
    let dma =
      Address_space.map_region proc.Process.aspace ~name:"dma" ~kind:Address_space.Dma
        ~bytes:(8 * Units.kib)
    in
    System.fill_region system proc dma (Bytes.of_string "DEVICEBUF");
    Sentry.mark_sensitive sentry proc;
    ignore (Sentry.lock sentry);
    let seen = ref 0 in
    if monitor then begin
      let _detach : unit -> unit =
        Bus.attach_monitor (Machine.bus machine) (fun txn ->
            if txn.Bus.op = Bus.Write && txn.Bus.initiator = `L2 then incr seen)
      in
      ()
    end;
    (match Sentry.unlock sentry ~pin:"1234" with
    | Ok stats -> checki "dma pages eager" 2 stats.Decrypt_on_unlock.dma_pages_eager
    | Error _ -> Alcotest.fail "unlock refused");
    (machine, !seen)
  in
  let plain, _ = run ~monitor:false and watched, seen = run ~monitor:true in
  if seen = 0 then Alcotest.fail "the monitor saw no L2 write-back";
  checkf "simulated clock" (Machine.now plain) (Machine.now watched);
  checkf "energy total" (Energy.total (Machine.energy plain)) (Energy.total (Machine.energy watched));
  Alcotest.(check (list (pair string (float 0.0))))
    "energy categories"
    (Energy.categories (Machine.energy plain))
    (Energy.categories (Machine.energy watched));
  Alcotest.(check (triple int int int))
    "bus stats" (Bus.stats (Machine.bus plain)) (Bus.stats (Machine.bus watched))

let () =
  Alcotest.run "sentry_core_fastpath"
    [
      ( "page-pipeline",
        [
          Alcotest.test_case "frame = bytes ciphertext" `Quick test_frame_matches_bytes;
          Alcotest.test_case "frames independent" `Quick test_frames_independent;
          Alcotest.test_case "taint relabel" `Quick test_frame_taint_relabel;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "encrypt_frame ceiling" `Quick test_encrypt_frame_allocation_ceiling;
          Alcotest.test_case "decrypt_page ceiling" `Quick test_decrypt_page_allocation_ceiling;
          Alcotest.test_case "journal pass ceiling" `Quick test_journal_allocation_ceiling;
        ] );
      ( "faults",
        [
          Alcotest.test_case "write-back fault keeps label" `Quick
            test_write_back_fault_keeps_label;
        ] );
      ( "observers",
        [
          Alcotest.test_case "dma unlock with and without monitor" `Quick
            test_dma_unlock_monitor_invariant;
        ] );
    ]
