(** The device-lock path (§2, §7).

    When the screen locks, Sentry:
    + waits for the zeroing thread to scrub freed pages (so no
      sensitive plaintext lingers in de-allocated frames);
    + walks the page tables of every sensitive process and encrypts
      each present page in place, honouring the shared-page policy;
    + clears every young bit so post-unlock accesses trap;
    + parks non-background sensitive processes on the un-schedulable
      queue;
    + flushes the L2 (masked) so no plaintext survives in unlocked
      cache ways. *)

open Sentry_soc
open Sentry_kernel

type stats = {
  pages_encrypted : int;
  bytes_encrypted : int;
  pages_skipped_shared : int;
  freed_pages_zeroed : int;
  elapsed_ns : float;
  energy_j : float;
}

(* Visit every PTE of every region of [sensitive] the share policy
   says to encrypt, in walk order, clearing each young bit after [f]
   so post-unlock accesses trap; returns the pages the policy
   skipped. *)
let iter_lockable (system : System.t) ~sensitive f =
  let skipped = ref 0 in
  List.iter
    (fun proc ->
      let aspace = proc.Process.aspace in
      List.iter
        (fun region ->
          if Share_policy.should_encrypt ~all_procs:system.System.procs region then
            List.iter
              (fun (vpn, pte) ->
                f proc vpn pte;
                pte.Page_table.young <- false)
              (Address_space.region_ptes aspace region)
          else skipped := !skipped + region.Address_space.npages)
        (Address_space.regions aspace))
    sensitive;
  !skipped

(* The frame every lock walk shares: the freed-page barrier (so no
   sensitive plaintext lingers in de-allocated frames), the journal
   pass, [protect] — which protects the pages and returns
   (pages protected, pages skipped) — then parking (the Locked_out
   guard makes it idempotent for the recovery re-run), the journal
   commit and the masked L2 flush (no plaintext may survive in
   unlocked cache ways). *)
let walk ?journal (system : System.t) ~sensitive ~background ~bytes_per_page protect =
  let machine = system.System.machine in
  let clock = Machine.clock machine in
  let start = Clock.now clock in
  let energy0 = Energy.category (Machine.energy machine) "aes" in
  let zeroed = Zerod.drain system.System.zerod in
  Option.iter
    (fun j ->
      let pid = match sensitive with p :: _ -> p.Process.pid | [] -> 0 in
      Lock_journal.begin_pass j Lock_journal.Lock_pass ~pid)
    journal;
  let pages, skipped = protect () in
  List.iter
    (fun proc ->
      if (not (background proc)) && proc.Process.state <> Process.Locked_out then
        Sched.make_unschedulable system.System.sched proc)
    sensitive;
  Option.iter Lock_journal.commit journal;
  Pl310.flush_masked (Machine.l2 machine);
  {
    pages_encrypted = pages;
    bytes_encrypted = pages * bytes_per_page;
    pages_skipped_shared = skipped;
    freed_pages_zeroed = zeroed;
    elapsed_ns = Clock.elapsed clock ~since:start;
    energy_j = Energy.category (Machine.energy machine) "aes" -. energy0;
  }

(** [run_per_page pc system ~sensitive ~background] executes the full
    lock sequence over the sensitive process set, one page at a time.
    No backend or flag reaches it: it is the reference walk the
    batched [run] is differentially tested against.  With [?journal],
    walk progress is journaled per page and the pass committed at the
    end.  The walk is idempotent (keyed off PTE [encrypted] bits). *)
let run_per_page ?journal pc system ~sensitive ~background =
  walk ?journal system ~sensitive ~background ~bytes_per_page:Page.size (fun () ->
      let pages = ref 0 in
      let skipped =
        iter_lockable system ~sensitive (fun proc vpn pte ->
            let pid = proc.Process.pid in
            if pte.Page_table.present && not pte.Page_table.encrypted then
              (* ordering is fail-secure and idempotent: ciphertext
                 lands in memory, then — inside the same crash unit,
                 before the page-boundary fault hook — the PTE flags
                 and the journal records.  A crash mid-transform
                 leaves the page cleartext and unflagged (recovery
                 re-encrypts it); a crash at the page boundary leaves
                 it flagged (recovery skips it).  Neither gap ever
                 leaves cleartext believed encrypted, and no page is
                 ever encrypted twice. *)
              Page_crypt.encrypt_frame pc ~pid ~vpn ~frame:pte.Page_table.frame ~commit:(fun () ->
                  pte.Page_table.encrypted <- true;
                  incr pages;
                  Option.iter (fun j -> Lock_journal.record j ~pid) journal))
      in
      (!pages, skipped))

(* The batched lock walk ([Batched] and [Offload]).  One pass over the
   page tables gathers every (pid, vpn, frame) triple to encrypt
   (clearing young bits as it goes), the work list is sorted by frame
   so the sweep walks DRAM and the physically-indexed L2
   monotonically, and the whole batch goes through
   [Page_crypt.encrypt_batch].  Each page's simulated op sequence and
   fail-secure ordering (ciphertext, then PTE flag, then journal) are
   exactly [run_per_page]'s; journal records are coalesced per
   [Lock_journal.coalesce] pages, an under-count recovery tolerates
   by design. *)
let encrypt_batched ?journal ~backend pc system ~sensitive () =
  let work = ref [] in
  let skipped =
    iter_lockable system ~sensitive (fun proc vpn pte ->
        if pte.Page_table.present && not pte.Page_table.encrypted then
          work := (proc.Process.pid, vpn, pte) :: !work)
  in
  let work = Array.of_list (List.rev !work) in
  (* stable, so layouts already walked in frame order (the common
     case) keep their walk order exactly *)
  Array.stable_sort
    (fun (_, _, a) (_, _, b) -> compare a.Page_table.frame b.Page_table.frame)
    work;
  let items =
    Array.map (fun (pid, vpn, pte) -> { Page_crypt.pid; vpn; frame = pte.Page_table.frame }) work
  in
  let pending = ref 0 and pending_pid = ref 0 in
  let flush j =
    if !pending > 0 then begin
      Lock_journal.record_batch j ~pid:!pending_pid ~pages:!pending;
      pending := 0
    end
  in
  Page_crypt.encrypt_batch ~backend pc items ~complete:(fun i ->
      let pid, _, pte = work.(i) in
      (* fail-secure and idempotent: ciphertext already in memory,
         now the PTE flag, then the (coalesced) journal — all before
         the page-boundary fault hook, as in [encrypt_frame] *)
      pte.Page_table.encrypted <- true;
      match journal with
      | Some j ->
          pending_pid := pid;
          incr pending;
          if !pending >= Lock_journal.coalesce then flush j
      | None -> ());
  Option.iter flush journal;
  (Array.length work, skipped)

(* The MProtect-inspired lock walk ([No_access]): revoke each
   sensitive page's mapping instead of encrypting it.  No bytes move —
   the frame keeps its {e cleartext} contents, which is exactly the
   attack surface the Table-3 checkers must flag (cold boot and DMA
   read secrets out of locked DRAM), and the freed-page barrier is the
   only thing between a de-allocated cleartext frame and a dump.  Each
   page still journals and fires the [page_encrypted] boundary hook
   so crash plans and recovery replay work unchanged; the walk is
   idempotent keyed off the [no_access] bit. *)
let revoke ?journal (system : System.t) ~sensitive () =
  let clock = Machine.clock system.System.machine in
  let pages = ref 0 in
  let skipped =
    iter_lockable system ~sensitive (fun proc _vpn pte ->
        if pte.Page_table.present && not pte.Page_table.no_access then begin
          (* permission write + single-entry TLB shootdown: the whole
             per-page cost of this backend *)
          pte.Page_table.no_access <- true;
          incr pages;
          Clock.advance clock Calib.pte_protect_ns;
          Option.iter (fun j -> Lock_journal.record j ~pid:proc.Process.pid) journal;
          Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_encrypted
        end)
  in
  (!pages, skipped)

(** [run ~backend pc system ~sensitive ~background] — the lock walk of
    every backend. *)
let run ?journal ~(backend : Backend.kind) pc system ~sensitive ~background =
  match backend with
  | Backend.Batched | Backend.Offload ->
      walk ?journal system ~sensitive ~background ~bytes_per_page:Page.size
        (encrypt_batched ?journal ~backend pc system ~sensitive)
  | Backend.No_access ->
      walk ?journal system ~sensitive ~background ~bytes_per_page:0
        (revoke ?journal system ~sensitive)
