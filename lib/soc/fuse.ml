(** Secure hardware fuse.

    Holds a random, hard-to-guess per-device secret, readable only by
    code running inside the TrustZone secure world (§7, Bootstrapping).
    Also carries the JTAG-disable fuse (§3.2). *)

open Sentry_util

type t = { secret : Bytes.t; mutable jtag_enabled : bool }

let secret_len = 32

let create ~prng = { secret = Prng.bytes prng secret_len; jtag_enabled = true }

(** Raw secret — callers must go through [Trustzone.read_fuse], which
    enforces the secure-world check; this function is the hardware
    wire, exposed for the TrustZone implementation only. *)
let secret_unchecked t = Bytes.copy t.secret

(** Burn the JTAG fuse at provisioning time; irreversible. *)
let burn_jtag_fuse t = t.jtag_enabled <- false

let jtag_enabled t = t.jtag_enabled
