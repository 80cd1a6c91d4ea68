(** Trace/metrics exporters. *)

val chrome_trace_string : ?process_name:string -> Event.t list -> string

(** One JSON object per line. *)
val jsonl : Event.t list -> string

(** {2 Causal span views} *)

(** Folded stacks for flamegraph tooling (flamegraph.pl, speedscope,
    inferno): one ["frame;frame;frame self_ns"] line per unique stack,
    sorted by stack.  Frames are ["subsystem:name"]; self time
    excludes tracked children so widths add up. *)
val folded : Event.t list -> string

type span_row = {
  sr_frame : string;
  sr_count : int;
  sr_total_ns : float;
  sr_self_ns : float;
}

(** Per-frame self/total-time profile over tracked spans, heaviest
    self time first.  Default [limit]: 20 rows. *)
val top_spans : ?limit:int -> Event.t list -> span_row list

(** Render [top_spans] rows as an aligned text table. *)
val top_spans_table : span_row list -> string

(** Flat metrics, one [{"key":…,"value":…}] object per line. *)
val metrics_jsonl : (string * float) list -> string

val write_file : path:string -> string -> unit
