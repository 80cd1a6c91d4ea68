(** The domain-safety rules, implemented over the untyped Parsetree
    ([compiler-libs.common]: [Parse.implementation] + [Ast_iterator]).

    Working without type information is deliberate — the linter must
    run on a file that does not yet compile — so each rule is a
    syntactic approximation, biased to catch the patterns that
    actually couple "independent" tenant shards:

    - {b R1 global-mutable}: a structure-level [let] whose right-hand
      side is a known mutable constructor ([ref], [Hashtbl.create],
      [Queue.create], [Buffer.create], [Bytes.create]/[make],
      [Array.make]) or a record literal mentioning a label this file
      declares [mutable].  [Atomic.make] is exempt by design: atomics
      are the blessed cross-domain primitive.  Literal [[| ... |]]
      tables (the AES S-boxes) are treated as constants.
    - {b R2 global-assign}: [:=] or [record.field <- v] whose target
      is a qualified path [M.x] resolving to an R1 global collected
      from {e another} file — the write half of hidden coupling.
    - {b R3 toplevel-effect}: [let () = ...] / [let _ = ...] at
      structure level: arbitrary effects at module-init time, before
      any handle exists to thread through.
    - {b R4 unsafe-escape}: [Obj.magic], [Bytes.unsafe_*],
      [Array.unsafe_*], [String.unsafe_*] outside the audited
      fast-path modules (the PR-3/PR-5 zero-allocation kernels, which
      carry their own differential suites).
    - {b R5 ambient-in-spawn}: an ambient (module-level)
      trace/fault call — [Trace.emit], [Trace.enter_span],
      [Injector.fire], … — lexically inside a closure handed to
      [Domain.spawn] / [Dpool.submit] / [Dpool.run].  The ambient
      slots are domain-local ([Domain.DLS]) and start {e empty} in a
      fresh domain, so such a call silently no-ops or targets the
      worker's own state rather than the spawner's.  The blessed
      per-domain setup calls ([Trace.install], [Injector.activate])
      and handle-threading APIs ([Trace.Recorder.*]) are not
      flagged.
    - {b R6 unreferenced-export}: a top-level [val] or [external] in
      an [.mli] whose name no [.ml] outside the module's own
      implementation mentions as the last component of a value
      identifier.  Matching the bare name can miss a dead export (any
      same-named value elsewhere counts as a use) but never flags a
      used one.  Items inside [module type] and nested [sig … end]
      are skipped. *)

open Parsetree

type global = { gfile : string; gmodule : string; gname : string; gkind : string }

type assign = {
  afile : string;
  aloc : Location.t;
  target_module : string;  (** innermost module component of the path *)
  target_name : string;
  target_path : string;  (** the dotted path as written *)
}

type scan = {
  findings : Finding.t list;  (** R1/R3/R4 — everything resolvable within one file *)
  globals : global list;
  assigns : assign list;  (** R2 candidates, resolved against the whole corpus *)
}

type export = { efile : string; eloc : Location.t; ename : string }

(* ------------------------- shared helpers ------------------------- *)

let path_of_lid lid = String.concat "." (Longident.flatten lid)

let last_of_lid lid =
  match List.rev (Longident.flatten lid) with x :: _ -> x | [] -> ""

let strip_stdlib path =
  if String.length path > 7 && String.sub path 0 7 = "Stdlib." then
    String.sub path 7 (String.length path - 7)
  else path

let rec strip_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_constraint e
  | _ -> e

let rec pattern_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) | Ppat_alias (p, _) | Ppat_open (_, p) -> pattern_name p
  | _ -> None

(* -------------------- R1: mutable constructors -------------------- *)

let mutable_ctors =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Buffer.create"; "Bytes.create"; "Bytes.make";
    "Array.make"; "Array.create_float" ]

(** [Some ctor] when [e]'s outermost shape allocates mutable storage.
    [labels] are the labels this file declares [mutable]. *)
let classify_mutable ~labels e =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _) ->
      let path = strip_stdlib (path_of_lid txt) in
      if List.mem path mutable_ctors then Some path else None
  | Pexp_record (fields, _) ->
      let mutable_label ((lid : Longident.t Asttypes.loc), _) =
        List.mem (last_of_lid lid.Asttypes.txt) labels
      in
      if labels <> [] && List.exists mutable_label fields then
        Some "record literal with mutable fields"
      else None
  | _ -> None

(** Labels declared [mutable] anywhere in the file (nested modules
    included) — the best a type-blind pass can do for record R1s. *)
let mutable_labels str =
  let labels = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
              List.iter
                (fun ld ->
                  if ld.pld_mutable = Asttypes.Mutable then
                    labels := ld.pld_name.Asttypes.txt :: !labels)
                lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it str;
  !labels

(* ------------------ structure walk: R1 and R3 --------------------- *)

(** Walk structure items, tracking the innermost module name — the
    component other modules use to reach a global ([Trace.current],
    not [Sentry_obs.Trace.current]). *)
let rec scan_structure_items ~file ~labels ~module_name str acc =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun (findings, globals) vb ->
              match pattern_name vb.pvb_pat with
              | Some name -> (
                  match classify_mutable ~labels vb.pvb_expr with
                  | Some ctor ->
                      let f =
                        Finding.make ~rule:Finding.R1_global_mutable ~file ~loc:vb.pvb_loc
                          ~symbol:name
                          ~message:
                            (Printf.sprintf
                               "module-level mutable state: '%s' is bound to %s; shards sharing \
                                this module are silently coupled (thread a handle, or use Atomic \
                                for a deliberate cross-domain counter)"
                               name ctor)
                      in
                      ( f :: findings,
                        { gfile = file; gmodule = module_name; gname = name; gkind = ctor }
                        :: globals )
                  | None -> (findings, globals))
              | None -> (
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_construct ({ txt = Longident.Lident "()"; _ }, None) | Ppat_any ->
                      let symbol =
                        match vb.pvb_pat.ppat_desc with Ppat_any -> "_" | _ -> "()"
                      in
                      let f =
                        Finding.make ~rule:Finding.R3_toplevel_effect ~file ~loc:vb.pvb_loc
                          ~symbol
                          ~message:
                            (Printf.sprintf
                               "'let %s = ...' runs side effects at module initialisation; \
                                registration must move behind an explicit constructor"
                               symbol)
                      in
                      (f :: findings, globals)
                  | _ -> (findings, globals)))
            acc vbs
      | Pstr_module mb -> scan_module_binding ~file ~labels mb acc
      | Pstr_recmodule mbs ->
          List.fold_left (fun acc mb -> scan_module_binding ~file ~labels mb acc) acc mbs
      | _ -> acc)
    acc str

and scan_module_binding ~file ~labels mb acc =
  let name = match mb.pmb_name.Asttypes.txt with Some n -> n | None -> "_" in
  let rec strip me =
    match me.pmod_desc with Pmod_constraint (me, _) -> strip me | _ -> me
  in
  match (strip mb.pmb_expr).pmod_desc with
  | Pmod_structure str -> scan_structure_items ~file ~labels ~module_name:name str acc
  | _ -> acc

(* ------------- expression walk: R4 and R2 candidates -------------- *)

let unsafe_modules = [ "Bytes"; "Array"; "String" ]

let unsafe_path lid =
  match List.rev (Longident.flatten lid) with
  | [ "magic"; "Obj" ] | [ "magic"; "Obj"; "Stdlib" ] -> Some "Obj.magic"
  | name :: m :: _
    when String.length name > 7
         && String.sub name 0 7 = "unsafe_"
         && List.mem m unsafe_modules ->
      Some (m ^ "." ^ name)
  | _ -> None

(* ----------- R5: ambient trace/fault calls inside spawns ----------- *)

(* Entry points whose closure arguments run on another domain. *)
let spawn_entries = [ "Domain.spawn"; "Dpool.submit"; "Dpool.run" ]

(* The ambient surface: emission and hook arrivals through the
   domain-local slot.  [Trace.install] / [Injector.activate] are the
   blessed per-domain setup and deliberately absent. *)
let ambient_apis =
  [ "Trace.emit"; "Trace.span"; "Trace.enter_span"; "Trace.exit_span"; "Trace.clear";
    "Trace.set_time_source"; "Injector.fire"; "Injector.poll" ]

(* Last two path components: [Sentry_obs.Trace.emit] and [Trace.emit]
   both yield ["Trace.emit"]. *)
let last2_of_lid lid =
  match List.rev (Longident.flatten lid) with
  | name :: m :: _ -> Some (m ^ "." ^ name)
  | _ -> None

let scan_expressions ~file ~r4_exempt str =
  let findings = ref [] in
  let assigns = ref [] in
  (* Nested spawns scan overlapping subtrees; dedupe on (pos, symbol)
     so an ambient call inside [Domain.spawn (fun () -> Dpool.run …)]
     is reported once. *)
  let seen_r5 = Hashtbl.create 8 in
  let add_r5 loc symbol =
    let pos = loc.Location.loc_start in
    let key = (pos.Lexing.pos_lnum, pos.Lexing.pos_cnum, symbol) in
    if not (Hashtbl.mem seen_r5 key) then begin
      Hashtbl.add seen_r5 key ();
      findings :=
        Finding.make ~rule:Finding.R5_ambient_in_spawn ~file ~loc ~symbol
          ~message:
            (Printf.sprintf
               "%s inside a spawned closure: the ambient slot is domain-local and starts empty \
                in a fresh domain, so this silently no-ops or targets the worker's own state — \
                install a per-domain recorder/session in the worker, or thread an explicit \
                handle"
               symbol)
        :: !findings
    end
  in
  let scan_spawn_arg arg =
    let sub =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; _ } -> (
                match last2_of_lid txt with
                | Some path when List.mem path ambient_apis -> add_r5 e.pexp_loc path
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    sub.expr sub arg
  in
  let add_assign loc lid =
    match lid with
    | Longident.Ldot (prefix, name) ->
        assigns :=
          {
            afile = file;
            aloc = loc;
            target_module = last_of_lid prefix;
            target_name = name;
            target_path = path_of_lid lid;
          }
          :: !assigns
    | _ -> ()  (* unqualified: same-module state, the module's own business *)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } when not r4_exempt -> (
              match unsafe_path txt with
              | Some prim ->
                  findings :=
                    Finding.make ~rule:Finding.R4_unsafe_escape ~file ~loc:e.pexp_loc
                      ~symbol:prim
                      ~message:
                        (Printf.sprintf
                           "%s outside the audited fast-path modules: bounds and \
                            representation safety are unchecked here"
                           prim)
                    :: !findings
              | None -> ())
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                [ (_, { pexp_desc = Pexp_ident { txt; _ }; _ }); _ ] ) ->
              add_assign e.pexp_loc txt
          | Pexp_setfield ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _, _) ->
              add_assign e.pexp_loc txt
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
              match last2_of_lid txt with
              | Some entry when List.mem entry spawn_entries ->
                  List.iter (fun (_, arg) -> scan_spawn_arg arg) args
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str;
  (!findings, !assigns)

(* ----------------------------- driver ----------------------------- *)

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(** Scan one parsed implementation.  [r4_exempt] marks an audited
    fast-path module whose [unsafe_*] uses are accepted wholesale. *)
let scan_file ~file ~r4_exempt str =
  let labels = mutable_labels str in
  let findings, globals =
    scan_structure_items ~file ~labels ~module_name:(module_name_of_file file) str ([], [])
  in
  let expr_findings, assigns = scan_expressions ~file ~r4_exempt str in
  { findings = findings @ expr_findings; globals; assigns }

(** Resolve R2 over the whole corpus: an assignment is a finding when
    its qualified target names an R1 global collected from a
    different file. *)
let resolve_assigns ~globals assigns =
  List.filter_map
    (fun a ->
      match
        List.find_opt
          (fun g ->
            String.equal g.gmodule a.target_module
            && String.equal g.gname a.target_name
            && not (String.equal g.gfile a.afile))
          globals
      with
      | Some g ->
          Some
            (Finding.make ~rule:Finding.R2_global_assign ~file:a.afile ~loc:a.aloc
               ~symbol:a.target_path
               ~message:
                 (Printf.sprintf
                    "assignment to %s — global mutable state of %s (%s) mutated from another \
                     module"
                    a.target_path g.gfile g.gkind))
      | None -> None)
    assigns

(* ------------------- R6: unreferenced exports --------------------- *)

(** The top-level [val]/[external] items of an interface. *)
let exports ~file (sg : signature) =
  List.filter_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> Some { efile = file; eloc = vd.pval_loc; ename = vd.pval_name.Asttypes.txt }
      | _ -> None)
    sg

(** Every value identifier in [str] as (qualifier, name): [M.v] (any
    longer path included) gives [(Some "M", "v")], a bare [v] gives
    [(None, "v")]. *)
let referenced_names str =
  let names = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              names :=
                (match List.rev (Longident.flatten txt) with
                | v :: m :: _ -> (Some m, v)
                | [ v ] -> (None, v)
                | [] -> (None, ""))
                :: !names
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str;
  !names

(** Resolve R6: [refs] maps each referencing [.ml] to the identifiers
    it mentions, [modules] names the modules under the lint roots.  A
    reference [M.v] counts only as a use of module [M]'s [v] when [M]
    is one of [modules], and as a use of any module's [v] when it is
    not (a library alias, a local module: the pass is type-blind); a
    bare [v] counts for any module.  An export is a finding when no
    reference from outside its own [.ml] counts for it. *)
let resolve_exports ~modules ~refs exports =
  let known = Hashtbl.create 512 in
  List.iter (fun m -> Hashtbl.replace known m ()) modules;
  let users = Hashtbl.create 4096 in
  List.iter
    (fun (file, names) ->
      List.iter (fun (q, n) -> Hashtbl.add users n (file, q)) (List.sort_uniq compare names))
    refs;
  List.filter_map
    (fun e ->
      let own = Filename.remove_extension e.efile ^ ".ml" in
      let m = module_name_of_file e.efile in
      let counts (file, q) =
        file <> own
        && match q with Some q -> q = m || not (Hashtbl.mem known q) | None -> true
      in
      if List.exists counts (Hashtbl.find_all users e.ename) then None
      else
        Some
          (Finding.make ~rule:Finding.R6_unreferenced_export ~file:e.efile ~loc:e.eloc
             ~symbol:e.ename
             ~message:
               (Printf.sprintf
                  "'%s' is exported but no .ml outside %s names it: delete it from the \
                   interface, and its definition if nothing else uses it"
                  e.ename own)))
    exports
