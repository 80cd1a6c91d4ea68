(** Cold-boot attacks (§3.1) in the three Table 2 reset variants:
    force a reset, image what the memories still hold, scan. *)

open Sentry_soc

type variant = Os_reboot | Device_reflash | Two_second_reset

val variant_name : variant -> string

type image = { dram : Memdump.t; iram : Memdump.t }

(** Force the reset {e once} and dump both memories.  Destructive;
    answer every question against the one image (each extra reset
    decays DRAM further — the footgun this API removes). *)
val image : Machine.t -> variant -> image

(** Scan an already-captured image for AES key schedules. *)
val keys_of_image : image -> Bytes.t list

(** Is [secret] findable in an already-captured image?  Matching
    tolerates ~15% decayed bytes (error-correcting tooling). *)
val secret_in_image : image -> secret:Bytes.t -> bool

(** Can the attacker find [secret] after the reset?  One-shot wrapper:
    mounts its own reset — capture an [image] instead when asking more
    than one question of the same machine state. *)
val succeeds : Machine.t -> variant -> secret:Bytes.t -> bool
