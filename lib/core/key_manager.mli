(** Root keys, resident on-SoC (§7, Bootstrapping): the per-boot
    volatile key for memory pages and the fuse+password-derived
    persistent key for disk state. *)

open Sentry_soc

type t

val key_len : int

(** Generate the volatile key and park it on-SoC. *)
val create : Machine.t -> Onsoc.t -> t

(** Read the volatile key back from on-SoC storage. *)
val volatile_key : t -> Bytes.t

(** Generate a fresh volatile key and park it at the same on-SoC
    address (crash recovery after the old key was lost with power). *)
val regenerate_volatile : t -> Bytes.t

(** Derive the persistent key inside TrustZone (fuse secret + boot
    password) and park it on-SoC. *)
val unlock_persistent : t -> password:string -> Bytes.t

(** The parked persistent key, if derived this boot. *)
val persistent_key : t -> Bytes.t option

(** Overwrite both keys with 0xFF. *)
val wipe : t -> unit
