(** Fig 2: performance overhead upon device unlock (time and MB

    See the implementation for methodology notes. *)

(** The tables for the shared app cycles ([Exp_apps.all]). *)
val run : Exp_apps.metrics list -> Sentry_util.Table.t list
