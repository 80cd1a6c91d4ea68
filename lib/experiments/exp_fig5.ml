(** Fig 5: energy overhead of encrypt-on-lock and decrypt-on-unlock,
    plus the §8.2 daily-battery figure. *)

open Sentry_util

let run metrics =
  let rows =
    List.map
      (fun (m : Exp_apps.metrics) ->
        [
          m.Exp_apps.profile.Sentry_workloads.App.app_name;
          Printf.sprintf "%.2f J" m.Exp_apps.lock_j;
          Printf.sprintf "%.2f J" m.Exp_apps.unlock_j;
          Printf.sprintf "%.2f J" (m.Exp_apps.lock_j +. m.Exp_apps.unlock_j);
        ])
      metrics
  in
  let daily =
    List.map
      (fun (m : Exp_apps.metrics) ->
        let per_day =
          float_of_int Sentry_soc.Calib.unlocks_per_day
          *. (m.Exp_apps.lock_j +. m.Exp_apps.unlock_j)
        in
        [
          m.Exp_apps.profile.Sentry_workloads.App.app_name;
          Printf.sprintf "%.0f J" per_day;
          Printf.sprintf "%.1f%%"
            (100.0 *. per_day /. Sentry_soc.Calib.nexus4_battery_j);
        ])
      metrics
  in
  [
    Table.make ~title:"Fig 5: energy of encrypt-on-lock / decrypt-on-unlock"
      ~header:[ "App"; "Encrypt-on-lock"; "Decrypt-on-unlock"; "Total/cycle" ]
      ~notes:[ "Paper: up to ~2.3 J for Maps; minimal for the others." ]
      rows;
    Table.make ~title:"Daily battery cost at 150 lock/unlock cycles (S8.2)"
      ~header:[ "App"; "J/day"; "Battery/day" ]
      ~notes:[ "Paper: ~2% of battery per day to protect an application." ]
      daily;
  ]
