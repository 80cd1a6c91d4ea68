(** Aligned ASCII tables — the render target of every experiment in
    [Sentry_experiments]. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val make : title:string -> header:string list -> ?notes:string list -> string list list -> t
val to_string : t -> string
val print : t -> unit

(** CSV rendering (title as a comment line) for plotting pipelines. *)
val to_csv : t -> string
