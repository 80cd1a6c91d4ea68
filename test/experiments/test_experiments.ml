(** Golden regression tests for the reproduction itself: every paper
    shape the bench harness must keep producing, asserted numerically
    (with tolerances matching EXPERIMENTS.md). *)

open Sentry_util
open Sentry_soc
open Sentry_crypto
open Sentry_core
open Sentry_attacks
open Sentry_workloads

let checkb = Alcotest.(check bool)
let close ?(tol = 0.02) name want got =
  Alcotest.(check (float (want *. tol))) name want got

(* ------------------------------ Table 2 --------------------------- *)

let remanence variant ~seed =
  let machine = Machine.create ~seed (Machine.tegra3 ~dram_size:(8 * Units.mib) ()) in
  let pat = Bytes.of_string "\xde\xad\xbe\xef\x13\x37\xc0\xde" in
  Bytes_util.fill_pattern (Dram.raw (Machine.dram machine)) pat;
  Bytes_util.fill_pattern (Iram.raw (Machine.iram machine)) pat;
  let img = Cold_boot.image machine variant in
  ( Memdump.remanence_ratio img.Cold_boot.iram ~pattern:pat,
    Memdump.remanence_ratio img.Cold_boot.dram ~pattern:pat )

let test_table2_shapes () =
  let iram, dram = remanence Cold_boot.Os_reboot ~seed:1 in
  close "warm iram 100%" 1.0 iram;
  close "warm dram 96.4%" 0.964 dram;
  let iram, dram = remanence Cold_boot.Device_reflash ~seed:2 in
  close ~tol:1.0 "reflash iram 0%" 0.0 iram;
  close ~tol:0.01 "reflash dram 97.5%" 0.975 dram;
  let iram, dram = remanence Cold_boot.Two_second_reset ~seed:3 in
  checkb "2s iram 0" true (iram = 0.0);
  checkb "2s dram ~0.1%" true (dram < 0.01)

(* ------------------------------ Table 3 --------------------------- *)

let test_table3_full_matrix () =
  List.iter
    (fun (attack, storage, safe) ->
      let expect = storage <> Verdict.Plain_dram in
      checkb
        (Verdict.attack_name attack ^ " vs " ^ Verdict.storage_name storage)
        expect safe)
    (Verdict.matrix ())

(* ------------------------------ Table 4 --------------------------- *)

let test_table4_access_protected_total () =
  List.iter
    (fun size ->
      let _, _, ap = Aes_state.by_sensitivity size in
      Alcotest.(check int) "2600 access-protected bytes" 2600 ap)
    [ Aes_key.Aes_128; Aes_key.Aes_192; Aes_key.Aes_256 ]

(* ------------------------------ Figs 2-5 -------------------------- *)

let metrics = lazy (Sentry_experiments.Exp_apps.all ())

let find_app name =
  List.find
    (fun (m : Sentry_experiments.Exp_apps.metrics) ->
      m.Sentry_experiments.Exp_apps.profile.App.app_name = name)
    (Lazy.force metrics)

let test_fig2_resume_shapes () =
  let maps = find_app "Maps" and contacts = find_app "Contacts" in
  close ~tol:0.15 "maps resume ~1.5s" 1.5 maps.Sentry_experiments.Exp_apps.unlock_s;
  checkb "contacts fast" true (contacts.Sentry_experiments.Exp_apps.unlock_s < 0.4);
  close ~tol:0.01 "maps 38MB at unlock" 38.0 maps.Sentry_experiments.Exp_apps.unlock_mb;
  (* proportionality: more MB -> more time, across all four apps *)
  let sorted_by_mb =
    List.sort
      (fun (a : Sentry_experiments.Exp_apps.metrics) b ->
        compare a.Sentry_experiments.Exp_apps.unlock_mb b.Sentry_experiments.Exp_apps.unlock_mb)
      (Lazy.force metrics)
  in
  let times = List.map (fun (m : Sentry_experiments.Exp_apps.metrics) -> m.Sentry_experiments.Exp_apps.unlock_s) sorted_by_mb in
  checkb "monotone in MB" true (List.sort compare times = times)

let test_fig3_overhead_shapes () =
  let pct name = (find_app name).Sentry_experiments.Exp_apps.script_overhead_pct in
  checkb "contacts ~4.3%" true (pct "Contacts" > 3.5 && pct "Contacts" < 5.5);
  checkb "maps ~1.2%" true (pct "Maps" > 0.8 && pct "Maps" < 1.8);
  checkb "twitter ~1.3%" true (pct "Twitter" > 0.8 && pct "Twitter" < 2.0);
  checkb "mp3 ~0.2%" true (pct "MP3" > 0.05 && pct "MP3" < 0.4);
  checkb "contacts is worst" true
    (pct "Contacts" > pct "Maps" && pct "Contacts" > pct "Twitter" && pct "Contacts" > pct "MP3")

let test_fig4_lock_shapes () =
  let maps = find_app "Maps" in
  close ~tol:0.01 "maps encrypts 48MB" 48.0 maps.Sentry_experiments.Exp_apps.lock_mb;
  checkb "lock under 2s" true
    (List.for_all
       (fun (m : Sentry_experiments.Exp_apps.metrics) -> m.Sentry_experiments.Exp_apps.lock_s < 2.0)
       (Lazy.force metrics))

let test_fig5_energy_shapes () =
  let maps = find_app "Maps" in
  let total = maps.Sentry_experiments.Exp_apps.lock_j +. maps.Sentry_experiments.Exp_apps.unlock_j in
  checkb "maps ~2.3-2.8 J per cycle" true (total > 2.0 && total < 3.0);
  let daily = 150.0 *. total /. Calib.nexus4_battery_j in
  checkb "~1-2% battery/day" true (daily > 0.008 && daily < 0.025)

(* ------------------------------ Figs 6-8 -------------------------- *)

let bg_factor profile ~budget ~seed =
  let base =
    let system = System.boot `Tegra3 ~seed in
    let proc =
      System.spawn system ~name:"bg" ~bytes:(profile.Background_app.working_set_kb * Units.kib)
    in
    System.fill_region system proc
      (List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace))
      (Bytes.of_string "golden!!");
    (Background_app.run system proc profile ~seed).Background_app.kernel_time_ns
  in
  let with_sentry =
    let system = System.boot `Tegra3 ~seed in
    let config = { (Config.default `Tegra3) with Config.background_budget_bytes = budget } in
    let sentry = Sentry.install system config in
    let proc =
      System.spawn system ~name:"bg" ~bytes:(profile.Background_app.working_set_kb * Units.kib)
    in
    System.fill_region system proc
      (List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace))
      (Bytes.of_string "golden!!");
    Sentry.mark_sensitive sentry proc;
    Sentry.enable_background sentry proc;
    ignore (Sentry.lock sentry);
    (Background_app.run system proc profile ~seed).Background_app.kernel_time_ns
  in
  with_sentry /. base

let test_fig6_alpine_factor () =
  let f = bg_factor Background_app.alpine ~budget:(256 * Units.kib) ~seed:(Hashtbl.hash "alpine") in
  checkb "alpine 256KB in [2.0, 3.5] (paper 2.74)" true (f > 2.0 && f < 3.5)

let test_fig8_xmms2_factor () =
  let f = bg_factor Background_app.xmms2 ~budget:(512 * Units.kib) ~seed:(Hashtbl.hash "xmms2") in
  checkb "xmms2 512KB in [1.25, 1.7] (paper 1.48)" true (f > 1.25 && f < 1.7)

(* ------------------------------ Fig 9 ----------------------------- *)

let test_fig9_shapes () =
  let run crypto ~direct_io =
    let seed = 99 in
    let system = System.boot `Tegra3 ~seed in
    (match crypto with
    | Filebench.Sentry_aes -> ignore (Sentry.install system (Config.default `Tegra3))
    | _ -> ());
    let setup = Filebench.prepare system ~crypto ~fileset_mb:2 ~nfiles:4 in
    (Filebench.run setup Filebench.Randread ~direct_io ~ops:150 ~seed).Filebench.throughput_mb_s
  in
  let nc = run Filebench.No_crypto ~direct_io:false in
  let g = run Filebench.Generic_aes ~direct_io:false in
  let s = run Filebench.Sentry_aes ~direct_io:false in
  checkb "cache masks crypto (within 5%)" true
    (abs_float (g -. nc) /. nc < 0.05 && abs_float (s -. nc) /. nc < 0.05);
  let gd = run Filebench.Generic_aes ~direct_io:true in
  let sd = run Filebench.Sentry_aes ~direct_io:true in
  checkb "direct I/O near AES rate" true (gd > 8.0 && gd < 14.0);
  checkb "sentry within 3% of generic" true (abs_float (sd -. gd) /. gd < 0.03)

(* ------------------------------ Fig 10 ---------------------------- *)

let test_fig10_shapes () =
  let r0 = Kernel_compile.run ~locked_ways:0 () in
  let r1 = Kernel_compile.run ~locked_ways:1 () in
  close ~tol:0.001 "baseline anchor" 14.41 r0.Kernel_compile.minutes;
  checkb "1 way ~14.5 min (paper 14.53)" true
    (r1.Kernel_compile.minutes > 14.45 && r1.Kernel_compile.minutes < 14.65)

(* ---------------------------- Figs 11-12 -------------------------- *)

let test_fig11_onsoc_overhead () =
  let g = Perf.throughput_mb_s ~platform:`Tegra3 Perf.Openssl_user in
  let l = Perf.throughput_mb_s ~platform:`Tegra3 Perf.Onsoc_locked_l2 in
  checkb "<1% overhead" true ((g -. l) /. g < 0.01)

let test_fig12_hw_energy_worse () =
  checkb "hw ~3-4x CPU energy" true
    (Perf.j_per_byte (Perf.Hw_accelerated `Downscaled) /. Perf.j_per_byte Perf.Openssl_user > 3.0)

(* ---------------------------- motivation -------------------------- *)

let test_motivation_battery_cycles () =
  (* 2 GB at the kernel AES rate, energy per byte -> cycles to empty *)
  let joules = 2048.0 *. 1048576.0 *. Perf.j_per_byte Perf.Crypto_api_kernel in
  let cycles = Calib.nexus4_battery_j /. joules in
  checkb "~410-450 cycles" true (cycles > 380.0 && cycles < 480.0);
  let seconds = 2048.0 /. Calib.aes_nexus_kernel_mb_s in
  checkb "about a minute" true (seconds > 45.0 && seconds < 75.0)

(* ----------------------- rendered-output pins --------------------- *)

(* md5 over the rendered tables of one registered experiment, minus
   the rows [drop] selects.  Every pinned experiment is deterministic
   (simulated clocks only), so its output is byte-identical run to run
   and any change to the lock path must leave these digests alone. *)
let rendered_md5 ?(drop = fun _ -> false) id =
  match Sentry_experiments.Experiments.find id with
  | None -> Alcotest.failf "no experiment %S" id
  | Some e ->
      e.Sentry_experiments.Experiments.run ()
      |> List.map (fun (t : Table.t) ->
             Table.to_string { t with Table.rows = List.filter (fun r -> not (drop r)) t.Table.rows })
      |> String.concat "" |> Digest.string |> Digest.to_hex

let pin id want () = Alcotest.(check string) (id ^ " rendered md5") want (rendered_md5 id)

(* [backends] rows lead with the backend label; the pin covers the
   batched, offload and no-access rows and every sweep row. *)
let test_backends_rendered () =
  Alcotest.(check string)
    "backends rendered md5 (three backends)" "0b06cac19668cb8a2df3fd815790a892"
    (rendered_md5 ~drop:(function "per-page" :: _ -> true | _ -> false) "backends")

let test_backends_simulated () =
  let module B = Sentry_experiments.Exp_backends in
  Alcotest.(check (option int)) "lock crossover pages" (Some 8) (B.lock_crossover_pages ());
  let exact name want got = Alcotest.(check (float 0.0)) name want got in
  exact "batched fault ns" 171376.18831168837 (B.fault_elapsed_ns Sentry.Batched);
  exact "offload fault ns" 551328.08333333326 (B.fault_elapsed_ns Sentry.Offload);
  exact "no-access fault ns" 55500.0 (B.fault_elapsed_ns Sentry.No_access);
  List.iter
    (fun (backend, lock_s, unlock_s) ->
      let m = Sentry_experiments.Exp_apps.run_app ~backend Apps.mp3 in
      let name = Backend.kind_name backend in
      exact (name ^ " mp3 lock_s") lock_s m.Sentry_experiments.Exp_apps.lock_s;
      exact (name ^ " mp3 unlock_s") unlock_s m.Sentry_experiments.Exp_apps.unlock_s)
    [
      (Sentry.Batched, 0.32495904207793308, 0.26144182524676512);
      (Sentry.Offload, 0.08626670933332467, 0.72678505600001853);
      (Sentry.No_access, 0.0037399999999999998, 0.071167999999999995);
    ]

let () =
  Alcotest.run "sentry_golden"
    [
      ( "tables",
        [
          Alcotest.test_case "table2 remanence" `Quick test_table2_shapes;
          Alcotest.test_case "table3 matrix" `Quick test_table3_full_matrix;
          Alcotest.test_case "table4 access-protected" `Quick test_table4_access_protected_total;
        ] );
      ( "app-figures",
        [
          Alcotest.test_case "fig2 resume" `Slow test_fig2_resume_shapes;
          Alcotest.test_case "fig3 overhead" `Slow test_fig3_overhead_shapes;
          Alcotest.test_case "fig4 lock" `Slow test_fig4_lock_shapes;
          Alcotest.test_case "fig5 energy" `Slow test_fig5_energy_shapes;
        ] );
      ( "background-figures",
        [
          Alcotest.test_case "fig6 alpine" `Slow test_fig6_alpine_factor;
          Alcotest.test_case "fig8 xmms2" `Slow test_fig8_xmms2_factor;
        ] );
      ( "system-figures",
        [
          Alcotest.test_case "fig9 filebench" `Slow test_fig9_shapes;
          Alcotest.test_case "fig10 compile" `Slow test_fig10_shapes;
          Alcotest.test_case "fig11 on-soc" `Quick test_fig11_onsoc_overhead;
          Alcotest.test_case "fig12 hw energy" `Quick test_fig12_hw_energy_worse;
          Alcotest.test_case "motivation" `Quick test_motivation_battery_cycles;
        ] );
      ( "rendered-pins",
        [
          Alcotest.test_case "fig1" `Quick (pin "fig1" "5b69b3a641fdabb4fd1ff37f4f0f1c5f");
          Alcotest.test_case "fig2" `Slow (pin "fig2" "30d373f75b68fc93668d3bfa5b419d69");
          Alcotest.test_case "fig3" `Slow (pin "fig3" "c3e443aa2fb2cb2793fb998b3bea689e");
          Alcotest.test_case "fig9" `Slow (pin "fig9" "d430b3dda7349d62adfcd1c324077484");
          Alcotest.test_case "table2" `Slow (pin "table2" "194736706afa2750d5fa5d4f46cb4be6");
          Alcotest.test_case "table3" `Slow (pin "table3" "69c933118f9e7f97f5dddeeeeabbc7b7");
          Alcotest.test_case "fig7" `Slow (pin "fig7" "e052ea569f6f972cddfb0c62d2b89568");
          Alcotest.test_case "table1" `Slow (pin "table1" "97dcce91fcc72ea6fce46b089ad05b4e");
          Alcotest.test_case "ablations" `Slow (pin "ablations" "784ade672cacd8ab48d02c35d4a7ac07");
          Alcotest.test_case "pinned" `Slow (pin "pinned" "ba0f4aee60dc30529eadc659c39b4349");
          Alcotest.test_case "serve" `Slow (pin "serve" "6262c569c1c5903e08061ac8c5419769");
          Alcotest.test_case "backends three-backend rows" `Slow test_backends_rendered;
          Alcotest.test_case "backends simulated numbers" `Slow test_backends_simulated;
        ] );
    ]
