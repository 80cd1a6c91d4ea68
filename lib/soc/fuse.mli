(** Secure hardware fuse: a per-device secret readable only through
    TrustZone, plus the JTAG-disable fuse (§3.2, §7). *)

open Sentry_util

type t

val secret_len : int
val create : prng:Prng.t -> t

(** The raw secret wire — for the TrustZone implementation only;
    everything else must go through [Trustzone.read_fuse]. *)
val secret_unchecked : t -> Bytes.t

(** Irreversibly disable JTAG at provisioning time. *)
val burn_jtag_fuse : t -> unit

val jtag_enabled : t -> bool
