(** Shared-page policy (§7): a page shared with any non-sensitive
    application is assumed non-secret; pages shared only among
    sensitive applications are encrypted. *)

open Sentry_kernel

(** Should this region be encrypted at device lock? *)
val should_encrypt : all_procs:Process.t list -> Address_space.region -> bool
