(** The freed-page zeroing kernel thread (§7, Securing Freed Pages):
    Linux zeroes freed pages eventually, with no deadline; Sentry's
    lock path waits for this thread.  Costs are the paper's measured
    4.014 GB/s and 2.8 uJ/MB. *)

open Sentry_soc

type t

val create : Machine.t -> frames:Frame_alloc.t -> t

(** Zero every pending dirty frame; returns how many were scrubbed.
    A no-op while disabled. *)
val drain : t -> int

(** Fault-injection knob: disabling reproduces stock Linux's
    no-deadline zeroing (freed pages linger). *)
val set_enabled : t -> bool -> unit

val pages_zeroed : t -> int
