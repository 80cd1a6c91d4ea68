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

(** The lazy fault handler installed while the device is unlocked:
    decrypts an encrypted page on first touch and sets its young bit.
    Fail-secure: the PTE's [encrypted] bit is cleared before the
    cleartext lands, so a crash mid-handler is re-encrypted by the
    recovery sweep. *)
val fault_handler : Page_crypt.t -> Vm.fault_handler

(** Offload twin of [fault_handler]: the single-page decrypt is one
    command submitted to the [Offload_engine] queue and polled to
    completion — every first touch pays the engine's full fixed
    latency (the losing side of the Offload crossover). *)
val fault_handler_offload : Page_crypt.t -> Vm.fault_handler

(** No_access lazy handler: restore the revoked mapping (PTE write +
    TLB shootdown, no crypto); residual ciphertext pages from a
    crypto backend's earlier cycle still decrypt, fail-secure. *)
val fault_handler_no_access : Page_crypt.t -> Vm.fault_handler

(** The standard (lazy) unlock through the batched pipeline (the
    default): eager DMA decrypt + handler install + re-admission to
    the scheduler.  With [?journal], eager progress is journaled so a
    crash mid-unlock can be rolled back ([Sentry.recover] re-encrypts
    and aborts the unlock). *)
val run : ?journal:Lock_journal.t -> Page_crypt.t -> System.t -> sensitive:Process.t list -> stats

(** The page-at-a-time reference unlock.  No backend or flag reaches
    it: it exists as the reference the batched [run] is differentially
    tested against. *)
val run_per_page :
  ?journal:Lock_journal.t -> Page_crypt.t -> System.t -> sensitive:Process.t list -> stats

(** Offload unlock: eager DMA batches pipeline into the command queue;
    the installed lazy handler is [fault_handler_offload]. *)
val run_offload :
  ?journal:Lock_journal.t -> Page_crypt.t -> System.t -> sensitive:Process.t list -> stats

(** No_access unlock: eagerly restore DMA-region mappings (PTE writes
    only, no coherence sweep — the bytes never moved); the installed
    lazy handler is [fault_handler_no_access]. *)
val run_no_access :
  ?journal:Lock_journal.t -> Page_crypt.t -> System.t -> sensitive:Process.t list -> stats

(** The eager-everything ablation: decrypt every page of every
    sensitive process at unlock time; returns total pages. *)
val run_eager : Page_crypt.t -> System.t -> sensitive:Process.t list -> int

(** The page-at-a-time eager ablation; like [run_per_page], a
    reference for [run_eager] that no backend or flag reaches. *)
val run_eager_per_page : Page_crypt.t -> System.t -> sensitive:Process.t list -> int

(** The eager-everything ablation through the offload engine. *)
val run_eager_offload : Page_crypt.t -> System.t -> sensitive:Process.t list -> int

(** The eager-everything ablation under No_access: restore every
    revoked mapping now. *)
val run_eager_no_access : Page_crypt.t -> System.t -> sensitive:Process.t list -> int
