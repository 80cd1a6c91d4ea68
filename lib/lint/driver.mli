(** The lint driver: walk source roots, parse every [.ml] and [.mli],
    run the rules, apply the allowlist, render text / JSON reports. *)

exception Parse_error of string

val parse_file : string -> Parsetree.structure
(** @raise Parse_error on unparseable input. *)

type report = {
  files_scanned : int;  (** [.ml] and [.mli] files under the roots *)
  findings : Finding.t list;  (** every finding, allowed or not, sorted *)
  allowed : Finding.t list;
  unallowed : Finding.t list;
  stale_allows : Allowlist.entry list;  (** entries that matched nothing *)
}

val run : ?allow:Allowlist.t -> roots:string list -> unit -> report

val clean : report -> bool
(** No unallowlisted findings. *)

val to_text : report -> string
val to_json_string : report -> string
