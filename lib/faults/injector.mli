(** Fault-injection engine.  A {!session} is an explicit handle (plan,
    PRNG, occurrence counters, firing log); hook points threaded
    through the memory/crypto stack consult the calling domain's
    {e active} session (a [Domain.DLS] slot — per-domain, so tenant
    shards on pool workers own independent sessions and start
    disarmed), and a disarmed hook is one domain-local read that
    allocates nothing. *)

type record = { point : string; kind : Fault.kind; occurrence : int }

exception Injected of record

type session

(** A fresh, inactive session over [plan]. *)
val create : Plan.t -> session

val plan_of : session -> Plan.t

(** Firings so far, oldest first. *)
val fired_of : session -> record list

(** Arrivals seen at a point in this session. *)
val occurrences_of : session -> string -> int

(** Install the [Bit_flip] corruption handler (the machine-owning
    harness flips DRAM bits). *)
val set_bit_flip_handler_of : session -> (point:string -> bits:int -> unit) -> unit

(** {2 The active session} *)

(** Make [s] the session the hook points consult. *)
val activate : session -> unit

val deactivate : unit -> unit
val current : unit -> session option

(** {2 Hook points} *)

(** Hook arrival; interrupting faults raise [Injected]. *)
val fire : string -> unit

(** Hook arrival for result-returning callers: [Dma_error] comes back
    as a value, globally-fatal kinds still raise [Injected]. *)
val poll : string -> record option

(** Canonical hook-point names (hooks and plans must agree). *)
module Points : sig
  val page_encrypted : string
  val page_decrypted : string
  val frame_transform : string
  val dm_crypt_sector : string
  val dma_read : string
  val dma_write : string
  val machine_write : string
  val all : string list
end
