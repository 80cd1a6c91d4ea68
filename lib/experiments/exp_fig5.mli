(** Fig 5: energy overhead of encrypt-on-lock and decrypt-on-unlock,

    See the implementation for methodology notes. *)

(** The tables for the shared app cycles ([Exp_apps.all]). *)
val run : Exp_apps.metrics list -> Sentry_util.Table.t list
