(** The Sentry facade: install on a booted system, mark applications
    sensitive, and drive the lock/unlock cycle.

    {[
      let system = System.boot `Tegra3 in
      let sentry = Sentry.install system (Config.default `Tegra3) in
      let app = System.spawn system ~name:"mail" ~bytes in
      Sentry.mark_sensitive sentry app;
      Sentry.enable_background sentry app;   (* tegra only *)
      let _ = Sentry.lock sentry in          (* memory now ciphertext *)
      (* ... app still runs, confined to locked L2 ... *)
      match Sentry.unlock sentry ~pin:"1234" with
      | Ok _ -> (* lazy decryption from here *) ()
      | Error _ -> ()
    ]} *)

type t

(** [install system config] sets up on-SoC storage (DMA-protected via
    TrustZone), the root keys, the AES_On_SoC instance (registered
    with the Crypto API above the generic cipher) and, where the
    platform allows, the background paging engine.
    @raise Invalid_argument on an inconsistent config. *)
val install : System.t -> Config.t -> t

val state : t -> Lock_state.state
val is_locked : t -> bool

(** Which protection backend drives lock/unlock walks (see [Backend]):
    [Batched] (default — gather, frame-sort, batch-transform,
    coalesced journal records), the page-at-a-time [Per_page]
    reference, the MemShield-style [Offload] command queue, or the
    MProtect-style [No_access] mapping revocation.  The three crypto
    backends have bit-identical per-page simulated observables;
    [No_access] leaves cleartext in DRAM by design. *)
type backend = Backend.kind = Batched | Per_page | Offload | No_access

val backend : t -> backend

(** Switch the protection backend.  Only legal while [Unlocked]: each
    backend fixes the journal granularity and walk driver [recover]
    assumes, so a switch between lock and unlock (or mid-recovery)
    would replay an interrupted walk under the wrong engine.
    Switching to the installed backend is a no-op in any state.
    @raise Invalid_argument outside [Unlocked]. *)
val set_backend : t -> backend -> unit

(** Mark an application for protection (the settings-menu extension
    of §7). *)
val mark_sensitive : t -> Sentry_kernel.Process.t -> unit

(** Allow a sensitive app to keep running while locked, paged through
    locked L2 cache (Tegra 3 only).
    @raise Invalid_argument without locked-cache paging, or if the
    process is not marked sensitive. *)
val enable_background : t -> Sentry_kernel.Process.t -> unit

(** Encrypt-on-lock: freed-page barrier, per-page encryption, parking,
    masked flush. *)
val lock : t -> Encrypt_on_lock.stats

(** PIN check, background working-set writeback, eager DMA-region
    decryption, lazy-handler installation. *)
val unlock : t -> pin:string -> (Decrypt_on_unlock.stats, Lock_state.unlock_error) result

(** Eager-unlock ablation: decrypt every page now; returns the page
    count. *)
val unlock_eager : t -> pin:string -> (int, Lock_state.unlock_error) result

(** {2 Crash recovery} *)

type resumed =
  | Resumed_lock  (** an interrupted lock was rolled forward to Locked *)
  | Rolled_back_unlock  (** an interrupted unlock was re-encrypted and aborted *)

type recovery_stats = {
  resumed : resumed;
  pages_fixed : int;  (** pages (re-)encrypted by the recovery sweep *)
  rekeyed : bool;  (** volatile key was lost with power and regenerated *)
  journal_entry : Lock_journal.entry option;  (** what the journal said, if it survived *)
  elapsed_ns : float;
}

(** [recover t] — the boot/wake-time crash-recovery pass.  [None] when
    nothing was interrupted.  Mid-lock: completes the encryption walk
    (roll-forward).  Mid-unlock: re-encrypts the already-decrypted
    pages and aborts back to [Locked].  Regenerates the volatile key
    (and re-pins locked L2 ways) when the crash lost them.  Idempotent:
    the sweep is keyed off PTE [encrypted] bits. *)
val recover : t -> recovery_stats option

(** {2 Component access} *)

val system : t -> System.t
val page_crypt : t -> Page_crypt.t
val background_engine : t -> Background.t option
val key_manager : t -> Key_manager.t
val onsoc : t -> Onsoc.t
val aes : t -> Sentry_crypto.Aes_on_soc.t
val config : t -> Config.t

(** Stats of the most recent lock / unlock, if any. *)
val last_lock_stats : t -> Encrypt_on_lock.stats option
val last_unlock_stats : t -> Decrypt_on_unlock.stats option
val lock_state : t -> Lock_state.t
val sensitive_processes : t -> Sentry_kernel.Process.t list
val background_processes : t -> Sentry_kernel.Process.t list

(** Is the crash-consistency journal active ([Config.journal] set and
    iRAM had room for the record)? *)
val journal_enabled : t -> bool

val last_recovery_stats : t -> recovery_stats option
