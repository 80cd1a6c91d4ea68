(** Crash-consistency journal for lock/unlock walks: one 32-byte
    record in iRAM recording which pass is in flight and how far it
    got.  Written last per page (after the PTE flags), so a crash only
    under-counts and recovery's sweep stays idempotent.  Survives warm
    reboots; wiped by the iRAM firmware clear on power-loss reboots
    ([load] then returns [None] and recovery falls back to a full
    sweep keyed off [Lock_state]). *)

open Sentry_soc

type pass = Lock_pass | Unlock_pass

type entry = { pass : pass; pid : int; pages_done : int }

type t

(** Record footprint in iRAM — what to [Iram_alloc.alloc]. *)
val size_bytes : int

(** [create machine ~addr] manages the record at iRAM address [addr].
    Nothing is written until [begin_pass]. *)
val create : Machine.t -> addr:int -> t

val addr : t -> int

(** Open a pass (written before the first page transform). *)
val begin_pass : t -> pass -> pid:int -> unit

(** One more page fully transformed in process [pid]. *)
val record : t -> pid:int -> unit

(** Pages per record write in the batched pipeline.  Mid-pass the
    journaled [pages_done] is a lower bound, trailing reality by up to
    [coalesce - 1] pages — safe, as recovery's sweep is keyed off PTE
    bits and the count only corroborates. *)
val coalesce : int

(** [record_batch t ~pid ~pages] — [pages] more pages transformed in
    process [pid], folded into one iRAM record write. *)
val record_batch : t -> pid:int -> pages:int -> unit

(** Close the pass: record returns to idle. *)
val commit : t -> unit

(** Read the record back; [None] when idle, wiped, or corrupt. *)
val load : t -> entry option
