(** The device-unlock path (§7): eager decryption of DMA regions
    (devices never fault), lazy young-bit-fault decryption for
    everything else. *)

open Sentry_kernel

type stats = {
  dma_pages_eager : int;
  dma_bytes_eager : int;
  elapsed_ns : float;
  energy_j : float;
}

(** The standard (lazy) unlock of every backend: eager DMA-region
    unlock, re-admission to the scheduler, and the lazy fault handler.
    Under [Batched]/[Offload] each DMA region is one frame-sorted
    [Page_crypt.decrypt_batch ~backend] followed by one coalesced
    pre-DMA coherence sweep; under [No_access] its mappings are
    restored (PTE writes only, no coherence sweep — the bytes never
    moved; residual ciphertext from a crypto backend's cycle still
    decrypts).  With [?journal], eager progress is journaled so a
    crash mid-unlock can be rolled back ([Sentry.recover] re-encrypts
    and aborts the unlock).

    The installed handler decrypts an encrypted page on first touch
    through [Page_crypt.decrypt_page ~backend] — the batch engine's
    page transform; under [Offload] every first touch pays the
    engine's full fixed latency — restores a revoked mapping (a PTE
    write and TLB shootdown, charged under [No_access] only) and sets
    the young bit.  Fail-secure: the PTE's [encrypted] bit is cleared
    before the cleartext lands, so a crash mid-handler is re-encrypted
    by the recovery sweep.  Every backend's handler clears every
    backend's leftover protection, so switching backends while
    unlocked strands nothing. *)
val run :
  ?journal:Lock_journal.t ->
  backend:Backend.kind ->
  Page_crypt.t ->
  System.t ->
  sensitive:Process.t list ->
  stats

(** The page-at-a-time reference unlock.  No backend or flag reaches
    it: it exists as the reference the batched [run] is differentially
    tested against, and installs a reference lazy handler built on
    [Page_crypt.decrypt_frame] so the lazy path is compared too. *)
val run_per_page :
  ?journal:Lock_journal.t -> Page_crypt.t -> System.t -> sensitive:Process.t list -> stats

(** The eager-everything ablation: unlock every page of every
    sensitive process at unlock time (installing [run]'s lazy handler
    for whatever stays protected); returns total pages. *)
val run_eager : backend:Backend.kind -> Page_crypt.t -> System.t -> sensitive:Process.t list -> int

(** The page-at-a-time eager ablation; like [run_per_page], a
    reference for [run_eager] that no backend or flag reaches. *)
val run_eager_per_page : Page_crypt.t -> System.t -> sensitive:Process.t list -> int
