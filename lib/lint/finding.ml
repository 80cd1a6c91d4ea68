(** The lint vocabulary: rules, severities and findings.

    A finding's identity for allowlisting purposes is the triple
    (rule, file, symbol) — line numbers churn with every edit, so the
    committed [lint.allow] matches on the stable parts and the line is
    carried only for display and the JSON report. *)

type rule =
  | R1_global_mutable
      (** a structure-level [let] bound to mutable storage ([ref],
          [Hashtbl.create], [Bytes.make], a record literal with
          mutable fields, ...): hidden cross-shard coupling *)
  | R2_global_assign
      (** [:=] or [<-] targeting another module's R1-flagged global *)
  | R3_toplevel_effect
      (** [let () = ...] (or [let _ = ...]) at structure level:
          side effects run at module initialisation *)
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
          outside the module's own implementation names: dead API
          surface *)

type severity = Error | Warning

let rule_id = function
  | R1_global_mutable -> "R1"
  | R2_global_assign -> "R2"
  | R3_toplevel_effect -> "R3"
  | R4_unsafe_escape -> "R4"
  | R5_ambient_in_spawn -> "R5"
  | R6_unreferenced_export -> "R6"

let rule_name = function
  | R1_global_mutable -> "global-mutable"
  | R2_global_assign -> "global-assign"
  | R3_toplevel_effect -> "toplevel-effect"
  | R4_unsafe_escape -> "unsafe-escape"
  | R5_ambient_in_spawn -> "ambient-in-spawn"
  | R6_unreferenced_export -> "unreferenced-export"

let rule_of_id = function
  | "R1" -> Some R1_global_mutable
  | "R2" -> Some R2_global_assign
  | "R3" -> Some R3_toplevel_effect
  | "R4" -> Some R4_unsafe_escape
  | "R5" -> Some R5_ambient_in_spawn
  | "R6" -> Some R6_unreferenced_export
  | _ -> None

(* R3 and R6 are warnings: module-init effects and dead exports are
   smells (the first runs before any handle exists to thread through,
   the second is API nobody calls) but not by themselves a data race.
   Every rule gates CI regardless of severity. *)
let severity = function
  | R1_global_mutable | R2_global_assign | R4_unsafe_escape | R5_ambient_in_spawn -> Error
  | R3_toplevel_effect | R6_unreferenced_export -> Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type t = {
  rule : rule;
  file : string;  (** path as scanned, '/'-separated, repo-relative *)
  line : int;
  col : int;
  symbol : string;  (** stable identity: bound name, target path or primitive *)
  message : string;
}

let make ~rule ~file ~loc ~symbol ~message =
  let pos = loc.Location.loc_start in
  {
    rule;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    symbol;
    message;
  }

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s %s] %s (symbol: %s)" f.file f.line f.col (rule_id f.rule)
    (rule_name f.rule) f.message f.symbol

(* Stable report order: by file, then line, then rule, then symbol. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_id a.rule) (rule_id b.rule) in
        if c <> 0 then c else String.compare a.symbol b.symbol
