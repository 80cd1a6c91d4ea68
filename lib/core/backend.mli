(** The protection-backend interface: one complete strategy for
    protecting sensitive memory across a lock/unlock cycle.  [Sentry]
    dispatches lock/unlock walks, the lazy fault handler and recovery
    through the installed backend; switching is guarded to the
    [Unlocked] state. *)

type kind =
  | Batched  (** encrypt-on-lock through the gather/sort/batch engine (default) *)
  | Offload
      (** MemShield-inspired deep command queue: high throughput, high
          fixed completion latency, explicit polling *)
  | No_access
      (** MProtect-inspired: locked pages become inaccessible, DRAM
          keeps cleartext (cold boot/DMA succeed by design) *)

val kind_name : kind -> string

(** Accepts both the CLI spelling ("no-access") and the constructor
    spelling ("no_access"). *)
val kind_of_string : string -> kind option

val all_kinds : kind list

module type S = sig
  val kind : kind
  val name : string

  (** Pages per journal record the walks coalesce — recovery's
      progress counters under-count by at most this. *)
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

  val unlock_eager :
    Page_crypt.t -> System.t -> sensitive:Sentry_kernel.Process.t list -> int

  val fault_handler : Page_crypt.t -> Sentry_kernel.Vm.fault_handler

  (** Run before a recovery walk replays the journal: tear down any
      backend state that did not survive the crash. *)
  val on_recover : Page_crypt.t -> unit
end

val of_kind : kind -> (module S)
