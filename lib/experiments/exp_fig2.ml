(** Fig 2: performance overhead upon device unlock (time and MB
    decrypted to resume each sensitive application). *)

open Sentry_util

let run metrics =
  let rows =
    List.map
      (fun (m : Exp_apps.metrics) ->
        [
          m.Exp_apps.profile.Sentry_workloads.App.app_name;
          Printf.sprintf "%.2f s" m.Exp_apps.unlock_s;
          Printf.sprintf "%.1f MB" m.Exp_apps.unlock_mb;
        ])
      metrics
  in
  [
    Table.make ~title:"Fig 2: overhead upon device unlock (resume)"
      ~header:[ "App"; "Time"; "MB decrypted" ]
      ~notes:
        [
          "Paper: 0.2 s (Contacts) to ~1.5 s (Maps); proportional to data decrypted.";
          "Includes eager DMA-region decryption plus lazy faults on the resume set.";
        ]
      rows;
  ]
