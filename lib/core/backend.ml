(** The protection-backend interface (ROADMAP item 3).

    A backend is one complete strategy for protecting sensitive memory
    across a lock/unlock cycle: a lock walk, an unlock walk, the lazy
    fault handler installed while unlocked, the eager-everything
    ablation, a journal granularity and a crash-recovery hook.
    [Sentry] dispatches every walk through the installed backend and
    guards switching ([Sentry.set_backend]) to the [Unlocked] state.

    Three implementations:
    - [Batched] — the paper's encrypt-on-lock through the PR-5
      gather/sort/batch engine (the default);
    - [Offload] — MemShield-inspired: the same batched walks pipelined
      into a deep high-throughput, high-fixed-latency command queue
      ([Offload_engine]) with explicit completion polling;
    - [No_access] — MProtect-inspired: locked pages become
      inaccessible instead of encrypted; DRAM keeps cleartext (cold
      boot/DMA succeed by design — Table 3 flips), lock is nearly
      free, faults are mapping restores. *)

type kind = Batched | Offload | No_access

let kind_name = function
  | Batched -> "batched"
  | Offload -> "offload"
  | No_access -> "no-access"

let kind_of_string = function
  | "batched" -> Some Batched
  | "offload" -> Some Offload
  | "no-access" | "no_access" -> Some No_access
  | _ -> None

let all_kinds = [ Batched; Offload; No_access ]

module type S = sig
  val kind : kind
  val name : string

  (** Pages per journal record the lock/unlock walks coalesce —
      recovery's progress counters under-count by at most this. *)
  val journal_coalesce : int

  val lock_walk :
    ?journal:Lock_journal.t ->
    Page_crypt.t ->
    System.t ->
    sensitive:Sentry_kernel.Process.t list ->
    background:(Sentry_kernel.Process.t -> bool) ->
    Encrypt_on_lock.stats

  val unlock_walk :
    ?journal:Lock_journal.t ->
    Page_crypt.t ->
    System.t ->
    sensitive:Sentry_kernel.Process.t list ->
    Decrypt_on_unlock.stats

  (** The eager-everything ablation; returns pages processed. *)
  val unlock_eager :
    Page_crypt.t -> System.t -> sensitive:Sentry_kernel.Process.t list -> int

  (** The lazy handler active while unlocked. *)
  val fault_handler : Page_crypt.t -> Sentry_kernel.Vm.fault_handler

  (** Run before a recovery walk replays the journal: tear down any
      backend state that did not survive the crash. *)
  val on_recover : Page_crypt.t -> unit
end

module Batched_impl : S = struct
  let kind = Batched
  let name = kind_name kind
  let journal_coalesce = Lock_journal.coalesce
  let lock_walk = Encrypt_on_lock.run
  let unlock_walk = Decrypt_on_unlock.run
  let unlock_eager = Decrypt_on_unlock.run_eager
  let fault_handler = Decrypt_on_unlock.fault_handler
  let on_recover _ = ()
end

module Offload_impl : S = struct
  let kind = Offload
  let name = kind_name kind
  let journal_coalesce = Lock_journal.coalesce
  let lock_walk = Encrypt_on_lock.run_offload
  let unlock_walk = Decrypt_on_unlock.run_offload
  let unlock_eager = Decrypt_on_unlock.run_eager_offload
  let fault_handler = Decrypt_on_unlock.fault_handler_offload

  (* the command queue does not survive a crash; recovery's walk
     re-submits whatever the journal says is outstanding *)
  let on_recover pc = Sentry_crypto.Offload_engine.reset (Page_crypt.engine pc)
end

module No_access_impl : S = struct
  let kind = No_access
  let name = kind_name kind
  let journal_coalesce = 1
  let lock_walk = Encrypt_on_lock.run_no_access
  let unlock_walk = Decrypt_on_unlock.run_no_access
  let unlock_eager = Decrypt_on_unlock.run_eager_no_access
  let fault_handler = Decrypt_on_unlock.fault_handler_no_access
  let on_recover _ = ()
end

let of_kind : kind -> (module S) = function
  | Batched -> (module Batched_impl)
  | Offload -> (module Offload_impl)
  | No_access -> (module No_access_impl)
