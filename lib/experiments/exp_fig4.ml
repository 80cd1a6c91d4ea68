(** Fig 4: performance overhead upon device lock (encrypt-on-lock). *)

open Sentry_util

let run metrics =
  let rows =
    List.map
      (fun (m : Exp_apps.metrics) ->
        [
          m.Exp_apps.profile.Sentry_workloads.App.app_name;
          Printf.sprintf "%.2f s" m.Exp_apps.lock_s;
          Printf.sprintf "%.1f MB" m.Exp_apps.lock_mb;
        ])
      metrics
  in
  [
    Table.make ~title:"Fig 4: overhead upon device lock"
      ~header:[ "App"; "Time"; "MB encrypted" ]
      ~notes:
        [
          "Paper: 0.7-2 s per app, proportional to the amount encrypted (Maps 48 MB).";
        ]
      rows;
  ]
