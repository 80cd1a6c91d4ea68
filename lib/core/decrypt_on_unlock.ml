(** The device-unlock path (§7, On-demand Decryption).

    Most pages decrypt lazily: unlock leaves them encrypted with the
    young bit clear, and the page-fault handler decrypts on first
    touch.  DMA regions (GPU buffers, I/O rings) are decrypted eagerly
    — device accesses use physical addresses and never fault. *)

open Sentry_soc
open Sentry_kernel

type stats = {
  dma_pages_eager : int;
  dma_bytes_eager : int;
  elapsed_ns : float;
  energy_j : float;
}

(* The lazy young-bit fault handler body.  Fail-secure ordering, same
   as [decrypt_region]: the PTE's [encrypted] bit is cleared {e
   before} the cleartext lands, so a crash anywhere inside the handler
   leaves a page the recovery sweep re-encrypts.  (The reverse order —
   decrypt, then clear — had a kill chain: a crash between the two
   leaves a cleartext frame whose PTE still claims ciphertext, the
   next lock walk skips it as already-encrypted, and the secret
   reaches DRAM unprotected.)  A revoked mapping is restored too,
   whichever backend revoked it — the handler's job is "make this page
   accessible cleartext", whichever bits protect it — and [restore]
   charges for that. *)
let handler ~decrypt ~restore pc : Vm.fault_handler =
 fun proc ~vaddr pte ->
  if pte.Page_table.encrypted then begin
    pte.Page_table.encrypted <- false;
    decrypt pc ~pid:proc.Process.pid ~vpn:(Page.vpn_of vaddr) ~frame:pte.Page_table.frame
  end;
  if pte.Page_table.no_access then begin
    pte.Page_table.no_access <- false;
    restore ()
  end;
  pte.Page_table.young <- true

(** The lazy handler of every backend.  An encrypted page goes through
    [Page_crypt.decrypt_page ~backend] — under [Offload] each first
    touch pays the engine's full fixed latency, the losing side of the
    crossover [exp_backends] measures.  Restoring a revoked mapping
    costs a permission write and a TLB shootdown under [No_access];
    the crypto backends only meet one left over from a [No_access]
    cycle and restore it free. *)
let fault_handler ~(backend : Backend.kind) pc =
  let restore =
    match backend with
    | Backend.No_access ->
        let clock = Machine.clock (Page_crypt.machine pc) in
        fun () -> Clock.advance clock Calib.pte_protect_ns
    | Backend.Batched | Backend.Offload -> ignore
  in
  handler ~decrypt:(Page_crypt.decrypt_page ~backend) ~restore pc

(* The page-at-a-time reference handler the reference walks install:
   [Page_crypt.decrypt_frame] per fault, so the lazy path is
   differentially tested too. *)
let reference_fault_handler pc = handler ~decrypt:Page_crypt.decrypt_frame ~restore:ignore pc

(* Pre-DMA coherence maintenance for an eagerly-decrypted DMA region:
   devices read these frames physically, bypassing the cache, so the
   decrypted lines must be cleaned out to DRAM.  Frames are sorted and
   contiguous runs coalesced into a single [clean_invalidate_range]
   sweep each — the same line set as a per-page sweep (maintenance
   charges are per dirty line, so the simulated cost is identical),
   without the per-page call overhead. *)
let dma_coherence_sweep machine ptes =
  let l2 = Machine.l2 machine in
  let frames =
    List.sort_uniq compare (List.map (fun (_, pte) -> pte.Page_table.frame) ptes)
  in
  let traced = Sentry_obs.Trace.on () in
  if traced then
    Sentry_obs.Trace.enter_span
      ~ts:(Clock.now (Machine.clock machine))
      ~cat:Sentry_obs.Event.Dma ~subsystem:"soc.dma" "dma-coherence-sweep";
  let rec sweep = function
    | [] -> ()
    | first :: rest ->
        let rec extend last = function
          | f :: tl when f = last + Page.size -> extend f tl
          | tl -> (last, tl)
        in
        let last, rest = extend first rest in
        Pl310.clean_invalidate_range l2 first (last + Page.size - first);
        sweep rest
  in
  sweep frames;
  if traced then
    Sentry_obs.Trace.exit_span
      ~ts:(Clock.now (Machine.clock machine))
      ~args:[ ("pages", Sentry_obs.Event.Int (List.length frames)) ]
      ()

(* The coherence sweep belongs to the region decrypt itself, so every
   path that eagerly decrypts a DMA region — the lazy unlock's DMA
   pass, the eager ablation, recovery rollbacks — gets it.  (It used
   to live only in [run], which left [run_eager]'d DMA buffers stale
   in DRAM: a device DMA after an eager unlock read ciphertext.) *)
let sweep_if_dma pc proc (region : Address_space.region) =
  match region.Address_space.kind with
  | Address_space.Dma ->
      dma_coherence_sweep (Page_crypt.machine pc)
        (Address_space.region_ptes proc.Process.aspace region)
  | Address_space.Normal | Address_space.Shared _ -> ()

(* The page-at-a-time reference region decrypt. *)
let decrypt_region ?journal pc proc region =
  let pid = proc.Process.pid in
  let pages = ref 0 in
  List.iter
    (fun (vpn, pte) ->
      if pte.Page_table.present && pte.Page_table.encrypted then begin
        (* fail-secure ordering: clear the bit before the cleartext
           lands, so a crash anywhere in this window makes the recovery
           sweep re-encrypt the page.  The reverse order would leave a
           cleartext frame whose PTE still claims ciphertext — invisible
           to recovery. *)
        pte.Page_table.encrypted <- false;
        Page_crypt.decrypt_frame pc ~pid ~vpn ~frame:pte.Page_table.frame;
        pte.Page_table.no_access <- false;
        pte.Page_table.young <- true;
        incr pages;
        Option.iter (fun j -> Lock_journal.record j ~pid) journal
      end)
    (Address_space.region_ptes proc.Process.aspace region);
  sweep_if_dma pc proc region;
  !pages

(* The batched region decrypt: the region's encrypted pages are
   gathered, frame-sorted and pushed through
   [Page_crypt.decrypt_batch ~backend]; per-page fail-secure ordering
   (bit cleared in [prepare], before the transform) and the trailing
   DMA coherence sweep are [decrypt_region]'s. *)
let decrypt_region_batched ~backend ?journal pc proc region =
  let pid = proc.Process.pid in
  let work =
    Array.of_list
      (List.filter
         (fun (_, pte) -> pte.Page_table.present && pte.Page_table.encrypted)
         (Address_space.region_ptes proc.Process.aspace region))
  in
  Array.stable_sort (fun (_, a) (_, b) -> compare a.Page_table.frame b.Page_table.frame) work;
  let items =
    Array.map (fun (vpn, pte) -> { Page_crypt.pid; vpn; frame = pte.Page_table.frame }) work
  in
  let pending = ref 0 in
  let flush j =
    if !pending > 0 then begin
      Lock_journal.record_batch j ~pid ~pages:!pending;
      pending := 0
    end
  in
  Page_crypt.decrypt_batch ~backend pc items
    ~prepare:(fun i -> (snd work.(i)).Page_table.encrypted <- false)
    ~complete:(fun i ->
      (snd work.(i)).Page_table.no_access <- false;
      (snd work.(i)).Page_table.young <- true;
      match journal with
      | Some j ->
          incr pending;
          if !pending >= Lock_journal.coalesce then flush j
      | None -> ());
  Option.iter flush journal;
  sweep_if_dma pc proc region;
  Array.length items

(* No_access eager pass over one region: restore every revoked
   mapping — PTE writes only, no crypto, no coherence sweep (the frame
   bytes never changed).  Residual ciphertext pages (from a crypto
   backend's earlier cycle) go through the batched CPU decrypt so
   devices never DMA ciphertext. *)
let restore_region ?journal pc proc region =
  let pid = proc.Process.pid in
  let clock = Machine.clock (Page_crypt.machine pc) in
  let residual = decrypt_region_batched ~backend:Backend.No_access ?journal pc proc region in
  let pages = ref residual in
  List.iter
    (fun ((_vpn : int), pte) ->
      if pte.Page_table.present && pte.Page_table.no_access then begin
        pte.Page_table.no_access <- false;
        pte.Page_table.young <- true;
        Clock.advance clock Calib.pte_protect_ns;
        incr pages;
        Option.iter (fun j -> Lock_journal.record j ~pid) journal
      end)
    (Address_space.region_ptes proc.Process.aspace region);
  !pages

let region_unlock ~(backend : Backend.kind) =
  match backend with
  | Backend.Batched | Backend.Offload -> decrypt_region_batched ~backend
  | Backend.No_access -> restore_region

(* The eager part of unlock, parameterized over the region walk and
   the lazy handler to install: unlock DMA regions, re-admit
   processes, install the handler. *)
let run_with ~region_decrypt ~handler ?journal pc (system : System.t) ~sensitive =
  let machine = system.System.machine in
  let clock = Machine.clock machine in
  let start = Clock.now clock in
  let energy0 = Energy.category (Machine.energy machine) "aes" in
  let dma_pages = ref 0 in
  Option.iter
    (fun j ->
      let pid = match sensitive with p :: _ -> p.Process.pid | [] -> 0 in
      Lock_journal.begin_pass j Lock_journal.Unlock_pass ~pid)
    journal;
  List.iter
    (fun proc ->
      List.iter
        (fun region ->
          match region.Address_space.kind with
          | Address_space.Dma -> dma_pages := !dma_pages + region_decrypt ?journal pc proc region
          | Address_space.Normal | Address_space.Shared _ -> ())
        (Address_space.regions proc.Process.aspace);
      Sched.make_schedulable system.System.sched proc)
    sensitive;
  Option.iter Lock_journal.commit journal;
  Vm.set_fault_handler system.System.vm (handler pc);
  {
    dma_pages_eager = !dma_pages;
    dma_bytes_eager = !dma_pages * Page.size;
    elapsed_ns = Clock.elapsed clock ~since:start;
    energy_j = Energy.category (Machine.energy machine) "aes" -. energy0;
  }

(** [run ~backend pc system ~sensitive] — the eager part of unlock:
    each DMA region is unlocked now (a frame-sorted batch decrypt and
    one coalesced pre-DMA coherence sweep under [Batched]/[Offload];
    mapping restores under [No_access]), then the lazy handler is
    installed.  With [?journal], eager progress is journaled
    (coalesced per [Lock_journal.coalesce] pages) so a crash
    mid-unlock can be rolled back to fully-locked ([Sentry.recover]
    re-encrypts the already-decrypted pages and aborts the unlock). *)
let run ?journal ~backend pc system ~sensitive =
  run_with ~region_decrypt:(region_unlock ~backend) ~handler:(fault_handler ~backend) ?journal
    pc system ~sensitive

(** The page-at-a-time reference unlock; no backend or flag reaches
    it (the batched [run] is differentially tested against it). *)
let run_per_page ?journal pc system ~sensitive =
  run_with ~region_decrypt:decrypt_region ~handler:reference_fault_handler ?journal pc system
    ~sensitive

(* The eager-everything ablation, parameterized like [run_with]. *)
let run_eager_with ~region_decrypt ~handler pc (system : System.t) ~sensitive =
  let pages = ref 0 in
  List.iter
    (fun proc ->
      List.iter
        (fun region -> pages := !pages + region_decrypt ?journal:None pc proc region)
        (Address_space.regions proc.Process.aspace);
      Sched.make_schedulable system.System.sched proc)
    sensitive;
  Vm.set_fault_handler system.System.vm (handler pc);
  !pages

(** Eager-everything alternative (the ablation Fig 2 is compared
    against): unlock every page of every sensitive process now,
    region by region. *)
let run_eager ~backend pc system ~sensitive =
  run_eager_with ~region_decrypt:(region_unlock ~backend) ~handler:(fault_handler ~backend) pc
    system ~sensitive

(** The page-at-a-time eager ablation; a reference for [run_eager]
    that no backend or flag reaches. *)
let run_eager_per_page pc system ~sensitive =
  run_eager_with ~region_decrypt:decrypt_region ~handler:reference_fault_handler pc system
    ~sensitive
