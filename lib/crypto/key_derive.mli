(** Root key derivation (§7, Bootstrapping). *)

open Sentry_soc

val key_len : int

(** Fresh random per-boot key (protects memory pages). *)
val volatile_key : Machine.t -> Bytes.t

(** Derive the disk root key: reads the fuse inside the TrustZone
    secure world and stretches it with the boot password. *)
val persistent_key : Machine.t -> password:string -> Bytes.t
