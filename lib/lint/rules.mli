(** The domain-safety rules over the untyped Parsetree.  Type-blind by
    design (the linter must run on code that does not yet compile);
    each rule is a syntactic approximation documented in the
    implementation and DESIGN.md §11. *)

type global = {
  gfile : string;
  gmodule : string;  (** the component other modules reference, e.g. [Trace] *)
  gname : string;
  gkind : string;  (** the mutable constructor, e.g. ["ref"] *)
}

type assign = {
  afile : string;
  aloc : Location.t;
  target_module : string;
  target_name : string;
  target_path : string;
}

type scan = {
  findings : Finding.t list;  (** R1/R3/R4/R5 — resolvable within one file *)
  globals : global list;
  assigns : assign list;  (** R2 candidates, resolved against the corpus *)
}

type export = {
  efile : string;  (** the [.mli] *)
  eloc : Location.t;
  ename : string;
}

val scan_file : file:string -> r4_exempt:bool -> Parsetree.structure -> scan
(** [r4_exempt] marks an audited fast-path module whose [unsafe_*]
    uses are accepted wholesale. *)

val resolve_assigns : globals:global list -> assign list -> Finding.t list
(** R2: assignments whose qualified target names an R1 global from a
    different file. *)

val exports : file:string -> Parsetree.signature -> export list
(** R6 candidates: the interface's top-level [val]/[external] items;
    items inside [module type] and nested [sig … end] are skipped. *)

val referenced_names : Parsetree.structure -> string list
(** The last component of every value identifier ([Pexp_ident]). *)

val resolve_exports : refs:(string * string list) list -> export list -> Finding.t list
(** R6: exports whose name no file in [refs] other than the module's
    own [.ml] mentions. *)
