(** Fig 3: runtime overhead while scripted sessions run after unlock

    See the implementation for methodology notes. *)

(** The tables for the shared app cycles ([Exp_apps.all]). *)
val run : Exp_apps.metrics list -> Sentry_util.Table.t list
