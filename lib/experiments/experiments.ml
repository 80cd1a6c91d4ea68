(** Registry of every paper table/figure reproduction, used by the
    bench harness and the CLI. *)

type context = { apps : Exp_apps.metrics list Lazy.t }

let context () = { apps = lazy (Exp_apps.all ()) }

type entry = {
  id : string; (* "table2", "fig9", ... *)
  description : string;
  run : context -> Sentry_util.Table.t list;
}

let alone run _ = run ()
let on_apps run ctx = run (Lazy.force ctx.apps)

let all =
  [
    { id = "table1"; description = "threat model (in-scope rows mounted)"; run = alone Exp_table1.run };
    { id = "table2"; description = "iRAM/DRAM data remanence"; run = alone Exp_table2.run };
    { id = "table3"; description = "storage alternatives vs attacks"; run = alone Exp_table3.run };
    { id = "table4"; description = "AES state breakdown"; run = alone Exp_table4.run };
    { id = "fig1"; description = "decrypt-on-page-in mechanism trace"; run = alone Exp_fig1.run };
    { id = "fig2"; description = "unlock (resume) overhead"; run = on_apps Exp_fig2.run };
    { id = "fig3"; description = "runtime overhead during use"; run = on_apps Exp_fig3.run };
    { id = "fig4"; description = "lock overhead"; run = on_apps Exp_fig4.run };
    { id = "fig5"; description = "lock/unlock energy"; run = on_apps Exp_fig5.run };
    { id = "fig6"; description = "background: alpine"; run = (fun _ -> [ Exp_fig6_8.fig6 () ]) };
    { id = "fig7"; description = "background: vlock"; run = (fun _ -> [ Exp_fig6_8.fig7 () ]) };
    { id = "fig8"; description = "background: xmms2"; run = (fun _ -> [ Exp_fig6_8.fig8 () ]) };
    { id = "fig9"; description = "dm-crypt filebench throughput"; run = alone Exp_fig9.run };
    { id = "fig10"; description = "kernel compile vs locked ways"; run = alone Exp_fig10.run };
    { id = "fig11"; description = "AES throughput variants"; run = alone Exp_fig11.run };
    { id = "fig12"; description = "AES energy per byte"; run = alone Exp_fig12.run };
    { id = "motivation"; description = "selective-encryption motivation"; run = alone Exp_motivation.run };
    { id = "ablations"; description = "design-choice ablations"; run = alone Exp_ablations.run };
    { id = "pinned"; description = "S10 pin-on-SoC architecture suggestion"; run = alone Exp_pinned.run };
    { id = "fleet"; description = "batched fleet lock throughput"; run = alone Exp_fleet.run };
    { id = "serve"; description = "open-loop serve: arrival rate vs backpressure"; run = alone Exp_serve.run };
    { id = "backends"; description = "protection backend race: batched/offload/no-access"; run = alone Exp_backends.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_and_print ctx (e : entry) =
  Printf.printf "### %s — %s\n\n" e.id e.description;
  List.iter Sentry_util.Table.print (e.run ctx)
