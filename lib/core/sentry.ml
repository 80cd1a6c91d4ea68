(** The Sentry facade: install on a booted system, mark applications
    sensitive, and drive the lock/unlock cycle.

    Usage sketch (see [examples/quickstart.ml]):
    {[
      let system = System.boot `Tegra3 in
      let sentry = Sentry.install system (Config.default `Tegra3) in
      let app = System.spawn system ~name:"mail" ~bytes:(8 * mib) in
      Sentry.mark_sensitive sentry app;
      Sentry.enable_background sentry app;   (* tegra only *)
      let _ = Sentry.lock sentry in          (* memory now ciphertext *)
      ...                                    (* app still runs, on-SoC *)
      match Sentry.unlock sentry ~pin:"1234" with
      | Ok _ -> ...                          (* lazy decrypt from here *)
      | Error _ -> ...
    ]} *)

open Sentry_kernel

type resumed = Resumed_lock | Rolled_back_unlock

(** Which protection backend drives the walks (see [Backend]).
    [Batched] (the default) gathers, frame-sorts and transforms pages
    through the batch engine with coalesced journal records; [Offload]
    pipelines the batched walks into the MemShield-style command
    queue; [No_access] revokes mappings instead of encrypting
    (MProtect-style — DRAM keeps cleartext).  [Batched] and [Offload]
    have bit-identical per-page simulated DRAM/PTE/taint observables
    and differ in time/energy; [No_access] diverges by design. *)
type backend = Backend.kind = Batched | Offload | No_access

type recovery_stats = {
  resumed : resumed;
  pages_fixed : int;  (** pages (re-)transformed by the recovery sweep *)
  rekeyed : bool;  (** volatile key was lost and regenerated *)
  journal_entry : Lock_journal.entry option;  (** what the journal said, if it survived *)
  elapsed_ns : float;
}

type t = {
  system : System.t;
  config : Config.t;
  onsoc : Onsoc.t;
  keys : Key_manager.t;
  aes : Sentry_crypto.Aes_on_soc.t;
  pc : Page_crypt.t;
  lock_state : Lock_state.t;
  background : Background.t option;
  journal : Lock_journal.t option;
  (* Host-side check value for the parked volatile key: models the
     kernel's knowledge of whether on-SoC key storage survived a
     reboot (a real port would use a boot counter or key check block).
     Never lives in simulated memory, so it is invisible to the
     modeled attacks. *)
  volatile_key_check : Bytes.t;
  mutable backend : Backend.kind;
  mutable sensitive : Process.t list;
  mutable background_enabled : Process.t list;
  mutable last_lock : Encrypt_on_lock.stats option;
  mutable last_unlock : Decrypt_on_unlock.stats option;
  mutable last_recovery : recovery_stats option;
}

let storage_of_config (config : Config.t) =
  match config.Config.storage with
  | Config.Use_iram -> Sentry_crypto.Aes_on_soc.In_iram
  | Config.Use_locked_l2 -> Sentry_crypto.Aes_on_soc.In_locked_l2
  | Config.Use_pinned -> Sentry_crypto.Aes_on_soc.In_pinned

(** [install system config] sets up on-SoC storage, root keys, the
    AES_On_SoC instance (registered with the Crypto API above the
    generic cipher) and, where the platform allows, the background
    paging engine. *)
let install (system : System.t) (config : Config.t) =
  let config =
    match Config.validate config with Ok c -> c | Error msg -> invalid_arg ("Sentry.install: " ^ msg)
  in
  let machine = system.System.machine in
  (* Shadow stores must exist before the first key write is tagged. *)
  if config.Config.track_taint then Sentry_soc.Machine.enable_taint machine;
  let onsoc = Onsoc.of_config machine config ~arena_base:system.System.arena_base in
  Onsoc.protect_from_dma onsoc machine;
  let keys = Key_manager.create machine onsoc in
  let volatile_key = Key_manager.volatile_key keys in
  let ctx_bytes = Sentry_crypto.Aes_state.total_size Sentry_crypto.Aes_key.Aes_128 in
  let ctx_base = Onsoc.alloc onsoc ~bytes:ctx_bytes in
  let aes =
    Sentry_crypto.Aes_on_soc.create machine ~storage:(storage_of_config config) ~base:ctx_base
      ~key:volatile_key
  in
  Sentry_crypto.Aes_on_soc.register aes system.System.crypto_api;
  Sentry_crypto.Aes_on_soc.register_xts aes system.System.crypto_api;
  let pc = Page_crypt.create machine ~aes ~volatile_key in
  let background =
    match onsoc with
    | Onsoc.Locked_storage locked when config.Config.background_budget_bytes > 0 ->
        (* The configured budget is Sentry's *total* locked-cache
           footprint (what Figs 6-8 call "256KB"/"512KB"), so the
           paging pool is the budget minus what keys and the AES
           context already pinned. *)
        let static_bytes = Locked_cache.used_pages locked * 4096 in
        Some
          (Background.create machine ~pc ~locked
             ~budget_bytes:(max 4096 (config.Config.background_budget_bytes - static_bytes)))
    | Onsoc.Pinned_storage _
      when config.Config.background_budget_bytes > 0
           && (Sentry_soc.Machine.config machine).Sentry_soc.Machine.cache_locking_available ->
        (* S10 platform: keys and the AES context live in pinned
           memory, but the background working set still pages through
           locked cache ways -- the whole budget is available. *)
        let locked =
          Locked_cache.create machine ~arena_base:system.System.arena_base
            ~max_ways:config.Config.max_locked_ways
        in
        Some
          (Background.create machine ~pc ~locked
             ~budget_bytes:config.Config.background_budget_bytes)
    | Onsoc.Locked_storage _ | Onsoc.Iram_storage _ | Onsoc.Pinned_storage _ -> None
  in
  let journal =
    if not config.Config.journal then None
    else
      (* The journal lives in iRAM (survives warm reboots; the
         firmware clear wipes it on power loss, which recovery
         tolerates).  On iRAM-storage platforms reuse the key
         allocator so the record cannot overlap the keys; elsewhere
         iRAM is otherwise unused by Sentry, so a fresh allocator over
         it is safe.  Exhaustion is a graceful fallback to the
         journal-less pipeline, not an error. *)
      let alloc =
        match onsoc with
        | Onsoc.Iram_storage a -> a
        | Onsoc.Locked_storage _ | Onsoc.Pinned_storage _ -> Iram_alloc.create machine
      in
      match Iram_alloc.alloc alloc ~bytes:Lock_journal.size_bytes with
      | Some addr -> Some (Lock_journal.create machine ~addr)
      | None -> None
  in
  {
    system;
    config;
    onsoc;
    keys;
    aes;
    pc;
    lock_state = Lock_state.create ~pin:config.Config.pin ~max_attempts:config.Config.max_pin_attempts;
    background;
    journal;
    volatile_key_check = Bytes.copy volatile_key;
    backend = Batched;
    sensitive = [];
    background_enabled = [];
    last_lock = None;
    last_unlock = None;
    last_recovery = None;
  }

let state t = Lock_state.state t.lock_state

let backend t = t.backend

(** [set_backend t b] — switch the protection backend.  Only legal
    while [Unlocked]: each backend fixes the journal granularity and
    walk driver [recover] assumes, so a switch between lock and unlock
    (or mid-recovery) would replay an interrupted walk under the wrong
    engine.  Switching to the already-installed backend is a no-op in
    any state.
    @raise Invalid_argument outside [Unlocked]. *)
let set_backend t b =
  if b <> backend t then begin
    if Lock_state.state t.lock_state <> Lock_state.Unlocked then
      invalid_arg
        (Printf.sprintf "Sentry.set_backend: cannot switch to %s while %s"
           (Backend.kind_name b)
           (Lock_state.state_name (Lock_state.state t.lock_state)));
    t.backend <- b
  end

let lock_walk t =
  Encrypt_on_lock.run ?journal:t.journal ~backend:t.backend t.pc t.system ~sensitive:t.sensitive
    ~background:(fun p -> List.memq p t.background_enabled)

let unlock_walk t =
  Decrypt_on_unlock.run ?journal:t.journal ~backend:t.backend t.pc t.system
    ~sensitive:t.sensitive

let is_locked t = state t = Lock_state.Locked || state t = Lock_state.Deep_locked

(** Mark an application for protection (the systems-settings menu
    extension of §7). *)
let mark_sensitive t proc =
  Process.mark_sensitive proc;
  if not (List.memq proc t.sensitive) then t.sensitive <- proc :: t.sensitive

(** Allow a sensitive app to keep running while locked (requires
    locked-L2 background paging — Tegra 3 only in the paper). *)
let enable_background t proc =
  if t.background = None then
    invalid_arg "Sentry.enable_background: platform has no locked-cache paging";
  if not (List.memq proc t.sensitive) then invalid_arg "Sentry.enable_background: mark it sensitive first";
  if not (List.memq proc t.background_enabled) then
    t.background_enabled <- proc :: t.background_enabled

(** [lock t] — encrypt-on-lock.  Returns the lock-path statistics. *)
let machine_now t = Sentry_soc.Clock.now (Sentry_soc.Machine.clock t.system.System.machine)

(** Fault-handler wiring for the locked state: background paging where
    enabled, otherwise faults on encrypted pages are hard stops. *)
let install_locked_fault_handler t =
  match t.background with
  | Some bg when t.background_enabled <> [] ->
      Vm.set_fault_handler t.system.System.vm (Background.fault_handler bg)
  | Some _ | None -> Vm.reset_fault_handler t.system.System.vm

let lock t =
  let start_ns = machine_now t in
  (* Captured once so the enter/exit pair cannot be torn by a recorder
     appearing mid-walk. *)
  let traced = Sentry_obs.Trace.on () in
  if traced then
    Sentry_obs.Trace.enter_span ~ts:start_ns ~cat:Sentry_obs.Event.Lock ~subsystem:"core.sentry"
      "encrypt-on-lock";
  Lock_state.begin_lock t.lock_state;
  let stats = lock_walk t in
  install_locked_fault_handler t;
  Lock_state.finish_lock t.lock_state;
  t.last_lock <- Some stats;
  if traced then
    Sentry_obs.Trace.exit_span ~ts:(machine_now t)
      ~args:
        [
          ("pages_encrypted", Sentry_obs.Event.Int stats.Encrypt_on_lock.pages_encrypted);
          ("freed_pages_zeroed", Sentry_obs.Event.Int stats.Encrypt_on_lock.freed_pages_zeroed);
        ]
      ();
  stats

(** [unlock t ~pin] — PIN check, eager DMA-region decryption, lazy
    handler installation. *)
let unlock t ~pin =
  let start_ns = machine_now t in
  match Lock_state.begin_unlock t.lock_state ~pin with
  | Error e -> Error e
  | Ok () ->
      let traced = Sentry_obs.Trace.on () in
      if traced then
        Sentry_obs.Trace.enter_span ~ts:start_ns ~cat:Sentry_obs.Event.Lock
          ~subsystem:"core.sentry" "decrypt-on-unlock";
      Option.iter Background.evict_all t.background;
      let stats = unlock_walk t in
      Lock_state.finish_unlock t.lock_state;
      t.last_unlock <- Some stats;
      if traced then
        Sentry_obs.Trace.exit_span ~ts:(machine_now t)
          ~args:
            [
              ("dma_pages_eager", Sentry_obs.Event.Int stats.Decrypt_on_unlock.dma_pages_eager);
            ]
          ();
      Ok stats

(** Re-establish key material after a crash, if it was lost.  A warm
    reboot preserves iRAM, so the parked volatile key reads back
    intact and nothing happens.  After power loss (or on locked-L2
    storage, any reboot — the controller reset dropped lockdown) the
    readback mismatches the host-side check value: re-pin the locked
    ways where applicable, regenerate the volatile key in place, and
    re-key the AES context and the page cipher.  Pages encrypted under
    the lost key stay garbage — fail-secure; recovery re-encrypts
    cleartext remnants under the new key. *)
let ensure_key t =
  if Bytes.equal (Key_manager.volatile_key t.keys) t.volatile_key_check then false
  else begin
    (match t.onsoc with
    | Onsoc.Locked_storage locked -> Locked_cache.relock locked
    | Onsoc.Iram_storage _ | Onsoc.Pinned_storage _ -> ());
    let key = Key_manager.regenerate_volatile t.keys in
    Sentry_crypto.Aes_on_soc.set_key t.aes key;
    Page_crypt.rekey t.pc ~volatile_key:key;
    Bytes.blit key 0 t.volatile_key_check 0 (Bytes.length key);
    true
  end

(** [recover t] — the boot/wake-time crash-recovery pass.  [None] when
    the lock state machine is at rest (nothing was interrupted; any
    stale journal record is cleared).  Mid-[Locking], the encryption
    walk is completed (roll-forward); mid-[Unlocking], the
    already-decrypted pages are re-encrypted and the unlock aborted
    (roll-back to [Locked] — the user re-enters the PIN).  Both paths
    are idempotent: the sweep is keyed off PTE [encrypted] bits and
    parking is guarded, so recovering an already-consistent system is
    a no-op walk. *)
let recover t =
  match Lock_state.state t.lock_state with
  | Lock_state.Unlocked | Lock_state.Locked | Lock_state.Deep_locked ->
      (* nothing in flight; drop any stale record (e.g. a crash after
         the walk finished but before commit) *)
      Option.iter
        (fun j -> if Lock_journal.load j <> None then Lock_journal.commit j)
        t.journal;
      None
  | (Lock_state.Locking | Lock_state.Unlocking) as interrupted ->
      let start_ns = machine_now t in
      let traced = Sentry_obs.Trace.on () in
      if traced then
        Sentry_obs.Trace.enter_span ~ts:start_ns ~cat:Sentry_obs.Event.Recovery
          ~subsystem:"core.recovery" "crash-recovery";
      let journal_entry = Option.bind t.journal Lock_journal.load in
      let rekeyed = ensure_key t in
      (* the offload engine's command queue does not survive a crash;
         the walk below re-submits whatever is outstanding *)
      (match t.backend with
      | Offload -> Sentry_crypto.Offload_engine.reset (Page_crypt.engine t.pc)
      | Batched | No_access -> ());
      (* The sweep is the lock walk itself: every present, unencrypted
         page of a should-encrypt region gets ciphertext — completing
         an interrupted lock and un-doing an interrupted unlock alike.
         A surviving journal record's [pages_done] is a lower bound
         under the batched pipeline (records coalesce per
         [Lock_journal.coalesce] pages) — corroboration either way;
         the sweep is keyed off PTE bits, not the count. *)
      let stats = lock_walk t in
      install_locked_fault_handler t;
      let resumed =
        match interrupted with
        | Lock_state.Locking ->
            Lock_state.finish_lock t.lock_state;
            Resumed_lock
        | _ ->
            Lock_state.abort_unlock t.lock_state;
            Rolled_back_unlock
      in
      let recovery =
        {
          resumed;
          pages_fixed = stats.Encrypt_on_lock.pages_encrypted;
          rekeyed;
          journal_entry;
          elapsed_ns = machine_now t -. start_ns;
        }
      in
      t.last_recovery <- Some recovery;
      if traced then
        Sentry_obs.Trace.exit_span ~ts:(machine_now t)
          ~args:
            [
              ( "resumed",
                Sentry_obs.Event.Str
                  (match resumed with
                  | Resumed_lock -> "lock"
                  | Rolled_back_unlock -> "unlock-rollback") );
              ("pages_fixed", Sentry_obs.Event.Int recovery.pages_fixed);
              ("rekeyed", Sentry_obs.Event.Bool rekeyed);
              ( "journal_survived",
                Sentry_obs.Event.Bool (journal_entry <> None) );
            ]
          ();
      Some recovery

(** Eager-unlock ablation: decrypt everything at unlock time. *)
let unlock_eager t ~pin =
  match Lock_state.begin_unlock t.lock_state ~pin with
  | Error e -> Error e
  | Ok () ->
      Option.iter Background.evict_all t.background;
      let pages =
        Decrypt_on_unlock.run_eager ~backend:t.backend t.pc t.system ~sensitive:t.sensitive
      in
      Lock_state.finish_unlock t.lock_state;
      Ok pages

let system t = t.system
let page_crypt t = t.pc
let background_engine t = t.background
let key_manager t = t.keys
let onsoc t = t.onsoc
let aes t = t.aes
let config t = t.config
let last_lock_stats t = t.last_lock
let last_unlock_stats t = t.last_unlock
let lock_state t = t.lock_state
let sensitive_processes t = t.sensitive
let background_processes t = t.background_enabled
let journal_enabled t = t.journal <> None
let last_recovery_stats t = t.last_recovery
