(** Figs 6-8: background computation performance while locked
    (alpine, vlock, xmms2) — kernel time without Sentry and with 256
    or 512 KB of locked L2 cache. *)

open Sentry_util
open Sentry_core
open Sentry_workloads

type cell = { kernel_s : float; faults : int; page_ins : int; page_outs : int }

let run_config (profile : Background_app.profile) ~budget_bytes ~seed =
  let system = System.boot `Tegra3 ~seed in
  let ws_bytes = profile.Background_app.working_set_kb * Units.kib in
  match budget_bytes with
  | None ->
      (* baseline: no Sentry; kernel time is aging faults + syscalls *)
      let proc = System.spawn system ~name:profile.Background_app.bg_name ~bytes:ws_bytes in
      System.fill_region system proc
        (List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace))
        (Bytes.of_string "bgdata!!");
      let r = Background_app.run system proc profile ~seed in
      {
        kernel_s = r.Background_app.kernel_time_ns /. Units.s;
        faults = r.Background_app.faults;
        page_ins = 0;
        page_outs = 0;
      }
  | Some budget ->
      let config = { (Config.default `Tegra3) with Config.background_budget_bytes = budget } in
      let sentry = Sentry.install system config in
      let proc = System.spawn system ~name:profile.Background_app.bg_name ~bytes:ws_bytes in
      System.fill_region system proc
        (List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace))
        (Bytes.of_string "bgdata!!");
      Sentry.mark_sensitive sentry proc;
      Sentry.enable_background sentry proc;
      ignore (Sentry.lock sentry);
      let r = Background_app.run system proc profile ~seed in
      let page_ins, page_outs =
        match Sentry.background_engine sentry with
        | Some bg -> Background.stats bg
        | None -> (0, 0)
      in
      {
        kernel_s = r.Background_app.kernel_time_ns /. Units.s;
        faults = r.Background_app.faults;
        page_ins;
        page_outs;
      }

let table_for (profile : Background_app.profile) ~figure ~paper_note =
  let seed = Hashtbl.hash profile.Background_app.bg_name in
  let base = run_config profile ~budget_bytes:None ~seed in
  let with256 = run_config profile ~budget_bytes:(Some (256 * Units.kib)) ~seed in
  let with512 = run_config profile ~budget_bytes:(Some (512 * Units.kib)) ~seed in
  let row label (c : cell) =
    [
      label;
      Printf.sprintf "%.3f s" c.kernel_s;
      Printf.sprintf "%.2fx" (c.kernel_s /. base.kernel_s);
      string_of_int c.faults;
      Printf.sprintf "%d/%d" c.page_ins c.page_outs;
    ]
  in
  Table.make
    ~title:(Printf.sprintf "Fig %s: background kernel time for %s" figure profile.Background_app.bg_name)
    ~header:[ "Config"; "Time in kernel"; "vs base"; "faults"; "page-ins/outs" ]
    ~notes:[ paper_note ]
    [
      row "Without Sentry" base;
      row "With Sentry (256KB)" with256;
      row "With Sentry (512KB)" with512;
    ]

let fig6 () =
  table_for Background_app.alpine ~figure:"6"
    ~paper_note:"Paper: alpine 2.74x slower with 256 KB of locked cache."

let fig7 () =
  table_for Background_app.vlock ~figure:"7"
    ~paper_note:"Paper: vlock overhead small in absolute terms (tiny working set)."

let fig8 () =
  table_for Background_app.xmms2 ~figure:"8"
    ~paper_note:"Paper: xmms2 48% overhead with 512 KB of locked cache."
