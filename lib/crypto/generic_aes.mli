(** The "generic AES" baseline: a stock software cipher whose context
    — key schedule included — is allocated in DRAM, with no register
    or interrupt discipline.  This is the cipher every attack
    experiment breaks. *)

open Sentry_soc

type t

(** [create ?uncached machine ~ctx_base ~variant] places the cipher
    context at a DRAM address.  [uncached] forces all context accesses
    onto the external bus (freshly-rebooted / cold-cache victim).
    @raise Invalid_argument if [ctx_base] is not in DRAM. *)
val create : ?uncached:bool -> Machine.t -> ctx_base:int -> variant:Perf.variant -> t

(** Key expansion — writes the full schedule into (simulated) DRAM. *)
val set_key : t -> Bytes.t -> unit

(** Instrumented CBC paths: every state access through DRAM, round
    state live in unprotected CPU registers. *)
val encrypt_instrumented : t -> iv:Bytes.t -> Bytes.t -> Bytes.t

(** Bulk path: native transform + modeled cost; the schedule is still
    in DRAM and the registers still unprotected. *)
val bulk : t -> dir:[ `Encrypt | `Decrypt ] -> iv:Bytes.t -> Bytes.t -> Bytes.t

(** Register with a [Crypto_api] at the stock priority (100). *)
val register : t -> Crypto_api.t -> unit
