(** Fig 3: runtime overhead while scripted sessions run after unlock
    (on-demand decryption during use). *)

open Sentry_util

let run metrics =
  let rows =
    List.map
      (fun (m : Exp_apps.metrics) ->
        [
          m.Exp_apps.profile.Sentry_workloads.App.app_name;
          Printf.sprintf "%.1f s" m.Exp_apps.script_elapsed_s;
          Printf.sprintf "%.1f%%" m.Exp_apps.script_overhead_pct;
          Printf.sprintf "%.1f MB" m.Exp_apps.script_mb;
        ])
      metrics
  in
  [
    Table.make ~title:"Fig 3: runtime overhead during scripted use"
      ~header:[ "App"; "Script time"; "Overhead"; "MB decrypted" ]
      ~notes:[ "Paper overheads: Contacts 4.3%, Maps 1.2%, Twitter 1.3%, MP3 0.2%." ]
      rows;
  ]
