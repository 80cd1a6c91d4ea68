(** The lint vocabulary: rules, severities and findings.

    A finding's allowlist identity is (rule, file, symbol) — line
    numbers churn with edits, so [lint.allow] matches on the stable
    parts and the line is carried for display and the JSON report. *)

type rule =
  | R1_global_mutable
      (** structure-level [let] bound to mutable storage *)
  | R2_global_assign
      (** [:=] / [<-] targeting another module's R1-flagged global *)
  | R3_toplevel_effect
      (** [let () = ...] / [let _ = ...] side effect at module init *)
  | R4_unsafe_escape
      (** [Obj.magic] / [Bytes.unsafe_*] / [Array.unsafe_*] outside
          the audited fast-path modules *)
  | R5_ambient_in_spawn
      (** an ambient (module-level compat) trace/fault call lexically
          inside a closure handed to [Domain.spawn] / [Dpool.submit] /
          [Dpool.run]: the ambient slots are domain-local and start
          empty in a fresh domain *)
  | R6_unreferenced_export
      (** a top-level [val]/[external] in an [.mli] that no [.ml]
          outside the module's own implementation names *)

type severity = Error | Warning

val rule_id : rule -> string
(** ["R1"] .. ["R6"] *)

val rule_name : rule -> string
(** e.g. ["global-mutable"] *)

val rule_of_id : string -> rule option

val severity : rule -> severity
(** R3 and R6 are [Warning]s; every rule still gates CI. *)

val severity_name : severity -> string

type t = {
  rule : rule;
  file : string;  (** path as scanned, '/'-separated, repo-relative *)
  line : int;
  col : int;
  symbol : string;  (** stable identity: bound name, target path or primitive *)
  message : string;
}

val make :
  rule:rule -> file:string -> loc:Location.t -> symbol:string -> message:string -> t

val to_string : t -> string

val compare : t -> t -> int
(** Stable report order: file, line, col, rule, symbol. *)
