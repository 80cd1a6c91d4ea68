(** Registry of every paper table/figure reproduction, used by the
    bench harness and the CLI. *)

(** What the runs of one invocation share: the Figs 2-5 app cycles,
    run at most once, by the first of those figures that runs. *)
type context = { apps : Exp_apps.metrics list Lazy.t }

(** A fresh context: nothing shared has run yet.  The CLI makes one
    per invocation; the bench harness one per timing, so trials stay
    i.i.d. *)
val context : unit -> context

type entry = {
  id : string;  (** "table2", "fig9", "ablations", ... *)
  description : string;
  run : context -> Sentry_util.Table.t list;
}

val all : entry list
val find : string -> entry option
val run_and_print : context -> entry -> unit
