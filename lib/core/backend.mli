(** The protection backends: each is one complete strategy for
    protecting sensitive memory across a lock/unlock cycle.  The kind
    is passed down to the one walk per job ([Encrypt_on_lock.run],
    [Decrypt_on_unlock.run] with the lazy handler it installs,
    [Decrypt_on_unlock.run_eager], and below them
    [Page_crypt.encrypt_batch]/[decrypt_batch]/[decrypt_page]);
    [Sentry] stores it and guards switching to the [Unlocked] state. *)

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
