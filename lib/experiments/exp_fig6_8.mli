(** Figs 6-8: background computation performance while locked
    (alpine, vlock, xmms2). *)

(** One table per figure, each from its own three configurations. *)
val fig6 : unit -> Sentry_util.Table.t

val fig7 : unit -> Sentry_util.Table.t
val fig8 : unit -> Sentry_util.Table.t
