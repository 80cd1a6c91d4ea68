(** Declarative service-level objectives over a flat metrics snapshot.

    Spec grammar, one objective per line ([#] comments, blank lines
    ignored):

    {v KEY [STAT] <=|>= THRESHOLD v}

    where [STAT] ∈ {p50, p95, p99, p999, mean, max, count} expands to
    ["KEY/STAT"] before lookup.  A key absent from the snapshot is a
    violation, never a vacuous pass. *)

type op = Le | Ge

type objective = {
  key : string;  (** full flat key after STAT expansion *)
  op : op;
  threshold : float;
  line : int;  (** 1-based spec line *)
}

type outcome = {
  objective : objective;
  actual : float option;  (** [None]: key absent from the snapshot *)
  ok : bool;
}

type report = { outcomes : outcome list; violations : int }

(** Parse a spec document; [Error] carries the first malformed line. *)
val parse : string -> (objective list, string) result

(** [parse] over a file; [Error] also covers I/O failures. *)
val load : path:string -> (objective list, string) result

(** Evaluate objectives against {!Metrics.flat} pairs. *)
val evaluate : objective list -> (string * float) list -> report

(** No violations? *)
val ok : report -> bool

val report_json : report -> Json_out.t
val pp_report : Format.formatter -> report -> unit
