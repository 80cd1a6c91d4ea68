(** The lint driver: walk the source roots, parse every [.ml] and
    [.mli], run the rules, apply the allowlist, and render text / JSON
    reports.

    The audited fast-path exemption for R4 is a fixed list here rather
    than [lint.allow] entries: those modules (the PR-3/PR-5
    zero-allocation kernels) hold their safety argument in their own
    differential suites and allocation-ceiling tests, and listing them
    in code keeps the committed allowlist for {e exceptions}, not
    architecture. *)

(** PR-3/PR-5 fast-path modules whose [unsafe_*] accessors are part of
    the audited zero-allocation design. *)
let fastpath_modules =
  [
    "lib/util/bytes_util.ml";  (* scatter-gather blit/compare kernels *)
    "lib/util/prng.ml";  (* hot-path fill with hoisted bounds *)
    "lib/crypto/aes.ml";  (* T-table rounds over pre-sized state *)
    "lib/crypto/mode.ml";  (* in-place CBC over scratch *)
    "lib/soc/pl310.ml";  (* per-access way scan, read_run fast path *)
    "lib/soc/dram.ml";  (* validated-once run blits *)
    "lib/soc/taint.ml";  (* shadow-store run scans *)
  ]

let normalize_path p =
  let p = String.split_on_char '\\' p |> String.concat "/" in
  if String.length p > 2 && String.sub p 0 2 = "./" then String.sub p 2 (String.length p - 2)
  else p

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let is_fastpath file =
  let file = normalize_path file in
  List.exists (fun m -> ends_with ~suffix:m file) fastpath_modules

(* ------------------------- file discovery ------------------------- *)

let skip_dirs = [ "_build"; ".git"; "fixtures" ]

let rec files_under ~suffix path =
  if Sys.is_directory path then
    if List.mem (Filename.basename path) skip_dirs then []
    else
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun entry -> files_under ~suffix (Filename.concat path entry))
  else if Filename.check_suffix path suffix then [ normalize_path path ]
  else []

let discover ~suffix roots =
  roots |> List.concat_map (files_under ~suffix) |> List.sort_uniq String.compare

(** Directories whose [.ml] files count as R6 references next to the
    scan roots, when they exist: an export that only a benchmark, test
    or example calls is still used, and linting one subtree of [lib]
    still sees the callers in the rest of it. *)
let reference_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "test"; "examples" ]

(* ----------------------------- parsing ---------------------------- *)

exception Parse_error of string

let parse_with parse path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      try parse lexbuf
      with exn ->
        raise
          (Parse_error
             (Printf.sprintf "%s: %s" path
                (match exn with Failure m -> m | e -> Printexc.to_string e))))

let parse_file = parse_with Parse.implementation

(* ------------------------------ report ---------------------------- *)

type report = {
  files_scanned : int;
  findings : Finding.t list;  (** every finding, allowed or not, sorted *)
  allowed : Finding.t list;
  unallowed : Finding.t list;
  stale_allows : Allowlist.entry list;  (** entries that matched nothing *)
}

let run ?(allow = Allowlist.empty) ~roots () =
  let files = discover ~suffix:".ml" roots in
  let interfaces = discover ~suffix:".mli" roots in
  let parsed = List.map (fun file -> (file, parse_file file)) files in
  let scans =
    List.map (fun (file, str) -> Rules.scan_file ~file ~r4_exempt:(is_fastpath file) str) parsed
  in
  let globals = List.concat_map (fun s -> s.Rules.globals) scans in
  let assigns = List.concat_map (fun s -> s.Rules.assigns) scans in
  let exports =
    List.concat_map (fun file -> Rules.exports ~file (parse_with Parse.interface file)) interfaces
  in
  let refs =
    let extra =
      discover ~suffix:".ml" (List.filter Sys.file_exists reference_dirs)
      |> List.filter (fun f -> not (List.mem_assoc f parsed))
      |> List.map (fun f -> (f, parse_file f))
    in
    List.map (fun (f, str) -> (f, Rules.referenced_names str)) (parsed @ extra)
  in
  let findings =
    List.concat_map (fun s -> s.Rules.findings) scans
    @ Rules.resolve_assigns ~globals assigns
    @ Rules.resolve_exports
        ~modules:(List.map Rules.module_name_of_file (files @ interfaces))
        ~refs exports
    |> List.sort Finding.compare
  in
  let allowed, unallowed = List.partition (Allowlist.allows allow) findings in
  {
    files_scanned = List.length files + List.length interfaces;
    findings;
    allowed;
    unallowed;
    stale_allows = Allowlist.unused allow findings;
  }

let clean r = r.unallowed = []

(* ------------------------------- text ----------------------------- *)

let to_text r =
  let buf = Buffer.create 512 in
  List.iter
    (fun f -> Buffer.add_string buf (Finding.to_string f ^ "\n"))
    r.unallowed;
  List.iter
    (fun f -> Buffer.add_string buf ("allowed: " ^ Finding.to_string f ^ "\n"))
    r.allowed;
  List.iter
    (fun (e : Allowlist.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "stale allow entry (line %d): %s %s %s — matched nothing, prune it\n"
           e.Allowlist.source_line
           (Finding.rule_id e.Allowlist.rule)
           e.Allowlist.file e.Allowlist.symbol))
    r.stale_allows;
  Buffer.add_string buf
    (Printf.sprintf "%d file(s) scanned: %d finding(s), %d allowlisted, %d violation(s)\n"
       r.files_scanned (List.length r.findings) (List.length r.allowed)
       (List.length r.unallowed));
  Buffer.contents buf

(* ------------------------------- JSON ----------------------------- *)

let finding_json ~allowed (f : Finding.t) =
  Sentry_obs.Json_out.Obj
    [
      ("rule", Sentry_obs.Json_out.Str (Finding.rule_id f.Finding.rule));
      ("name", Sentry_obs.Json_out.Str (Finding.rule_name f.Finding.rule));
      ( "severity",
        Sentry_obs.Json_out.Str (Finding.severity_name (Finding.severity f.Finding.rule)) );
      ("file", Sentry_obs.Json_out.Str f.Finding.file);
      ("line", Sentry_obs.Json_out.Int f.Finding.line);
      ("col", Sentry_obs.Json_out.Int f.Finding.col);
      ("symbol", Sentry_obs.Json_out.Str f.Finding.symbol);
      ("message", Sentry_obs.Json_out.Str f.Finding.message);
      ("allowed", Sentry_obs.Json_out.Bool allowed);
    ]

let to_json r =
  let open Sentry_obs.Json_out in
  Obj
    [
      ("schema", Str "sentry-lint/v1");
      ("files_scanned", Int r.files_scanned);
      ( "findings",
        List
          (List.map
             (fun f -> finding_json ~allowed:(List.memq f r.allowed) f)
             r.findings) );
      ( "stale_allows",
        List
          (List.map
             (fun (e : Allowlist.entry) ->
               Obj
                 [
                   ("rule", Str (Finding.rule_id e.Allowlist.rule));
                   ("file", Str e.Allowlist.file);
                   ("symbol", Str e.Allowlist.symbol);
                   ("source_line", Int e.Allowlist.source_line);
                 ])
             r.stale_allows) );
      ( "summary",
        Obj
          [
            ("total", Int (List.length r.findings));
            ("allowed", Int (List.length r.allowed));
            ("violations", Int (List.length r.unallowed));
          ] );
    ]

let to_json_string r = Sentry_obs.Json_out.to_string (to_json r)
