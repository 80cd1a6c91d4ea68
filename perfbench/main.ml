(** The benchmark program: one run of one workload, report lines, then
    the result as one JSON object on the last line of stdout.

    {v
    main.exe --workload fleet-churn --seed 7 --seconds 20 --trace 0 [--rev REV]
    v}

    With [--trace 1] the run also writes its spans to
    [.perfbench/<workload>/] (Chrome trace JSON, folded stacks and a
    per-span summary). *)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20.0 and trace = ref 0 in
  let rev = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S time to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rev", Arg.Set_string rev, "REV source revision to record in the manifest line");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--rev REV]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload Perfbench.Suite.workloads) then begin
    Printf.eprintf "unknown workload %S; one of: %s\n" !workload
      (String.concat ", " (List.map fst Perfbench.Suite.workloads));
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if not (!seconds >= 0.0 && !seconds <= 120.0) then begin
    prerr_endline "--seconds takes a number from 0 to 120";
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf
    "manifest: workload=%s seed=%d seconds=%g trace=%b host_cores=%d ocaml=%s rev=%s\n%!"
    !workload !seed !seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (if !rev = "" then "unknown" else !rev);
  let trace_dir =
    if trace then begin
      let dir = Filename.concat ".perfbench" !workload in
      List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ ".perfbench"; dir ];
      Some dir
    end
    else None
  in
  let r =
    Perfbench.Suite.run ?trace_dir ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ()
  in
  List.iter print_endline r.notes;
  print_endline (Perfbench.Suite.json_line ~trace r)
