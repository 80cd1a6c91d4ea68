(** Registry of every paper table/figure reproduction, used by the
    bench harness and the CLI. *)

type entry = {
  id : string; (* "table2", "fig9", ... *)
  description : string;
  run : unit -> Sentry_util.Table.t list;
}

let all =
  [
    { id = "table1"; description = "threat model (in-scope rows mounted)"; run = Exp_table1.run };
    { id = "table2"; description = "iRAM/DRAM data remanence"; run = Exp_table2.run };
    { id = "table3"; description = "storage alternatives vs attacks"; run = Exp_table3.run };
    { id = "table4"; description = "AES state breakdown"; run = Exp_table4.run };
    { id = "fig1"; description = "decrypt-on-page-in mechanism trace"; run = Exp_fig1.run };
    { id = "fig2"; description = "unlock (resume) overhead"; run = Exp_fig2.run };
    { id = "fig3"; description = "runtime overhead during use"; run = Exp_fig3.run };
    { id = "fig4"; description = "lock overhead"; run = Exp_fig4.run };
    { id = "fig5"; description = "lock/unlock energy"; run = Exp_fig5.run };
    { id = "fig6"; description = "background: alpine"; run = (fun () -> [ List.nth (Exp_fig6_8.run ()) 0 ]) };
    { id = "fig7"; description = "background: vlock"; run = (fun () -> [ List.nth (Exp_fig6_8.run ()) 1 ]) };
    { id = "fig8"; description = "background: xmms2"; run = (fun () -> [ List.nth (Exp_fig6_8.run ()) 2 ]) };
    { id = "fig9"; description = "dm-crypt filebench throughput"; run = Exp_fig9.run };
    { id = "fig10"; description = "kernel compile vs locked ways"; run = Exp_fig10.run };
    { id = "fig11"; description = "AES throughput variants"; run = Exp_fig11.run };
    { id = "fig12"; description = "AES energy per byte"; run = Exp_fig12.run };
    { id = "motivation"; description = "selective-encryption motivation"; run = Exp_motivation.run };
    { id = "ablations"; description = "design-choice ablations"; run = Exp_ablations.run };
    { id = "pinned"; description = "S10 pin-on-SoC architecture suggestion"; run = Exp_pinned.run };
    { id = "fleet"; description = "batched fleet lock throughput"; run = Exp_fleet.run };
    { id = "serve"; description = "open-loop serve: arrival rate vs backpressure"; run = Exp_serve.run };
    { id = "backends"; description = "protection backend race: batched/offload/no-access"; run = Exp_backends.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(** Drop every cross-experiment memo (today: the shared Figs 2-5 app
    cycles) so the next run starts cold, and compact the host heap —
    the bench harness calls this between trials to keep them i.i.d.
    Without the compaction, major-heap garbage from earlier trials
    piles GC work onto later ones: the committed fig5 timings showed
    mean 9.9 s with stddev 6.6 s purely from that accumulation. *)
let reset_caches () =
  Exp_apps.reset ();
  Gc.compact ()

let run_and_print (e : entry) =
  Printf.printf "### %s — %s\n\n" e.id e.description;
  List.iter Sentry_util.Table.print (e.run ())
