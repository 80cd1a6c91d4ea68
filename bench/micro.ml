(** Bechamel microbenchmarks: host-side performance of the primitives
    behind each table/figure reproduction.

    These measure the {e implementation} (our AES, cache model, pager)
    on the host CPU; the paper-shaped numbers come from the calibrated
    simulation in [Sentry_experiments].  One [Test.make] per
    table/figure, named accordingly, for the primitives the perfbench
    layer ladder ([Perfbench.Ladder]) does not already time; the
    ladder's rungs (page CBC, L2 line hit/miss, dm-crypt sector, ...)
    print after them. *)

open Bechamel
open Toolkit
open Sentry_util
open Sentry_soc
open Sentry_crypto

let aes_key = Aes.expand (Bytes.make 16 'k')
let block16 = Bytes.make 16 'p'
let page4k = Bytes.make 4096 'p'

(* Table 4 / Fig 11: the cipher itself *)
let t_aes_block =
  Test.make ~name:"table4/aes128-block-encrypt"
    (Staged.stage (fun () -> Aes.encrypt_block aes_key block16 0 block16 0))

let t_aes_instrumented =
  let buf = Bytes.make 4096 '\000' in
  let blk = Aes_block.init (Accessor.native buf) ~key:(Bytes.make 16 'k') in
  Test.make ~name:"fig11/aes128-instrumented-block"
    (Staged.stage (fun () -> Aes_block.encrypt_block blk block16 0 block16 0))

let t_sha256 =
  Test.make ~name:"fig9/sha256-4k" (Staged.stage (fun () -> ignore (Sha256.digest page4k)))

(* Ablations: the table-free cipher and XTS sector mode *)
let t_aes_ct =
  let k = Aes_ct.expand (Bytes.make 16 'k') in
  Test.make ~name:"ablations/aes-ct-table-free-block"
    (Staged.stage (fun () -> Aes_ct.encrypt_block k block16 0 block16 0))

let t_xts_sector =
  let k = Xts.expand (Bytes.make 32 'k') in
  let sector512 = Bytes.make 512 's' in
  Test.make ~name:"ablations/xts-aes-512B-sector"
    (Staged.stage (fun () -> ignore (Xts.encrypt_sector k ~sector:42 sector512)))

(* Table 2: remanence decay over 64 KB *)
let t_remanence =
  let machine = Machine.create (Machine.tegra3 ~dram_size:(2 * Units.mib) ()) in
  Dram.set_powered (Machine.dram machine) false;
  Test.make ~name:"table2/power-cycle-2MB"
    (Staged.stage (fun () -> Dram.power_cycle (Machine.dram machine) ~off_s:0.5))

(* Figs 2-5: per-page lock-path encryption *)
let t_page_encrypt =
  let system = Sentry_core.System.boot `Tegra3 ~seed:1 in
  let sentry = Sentry_core.Sentry.install system (Sentry_core.Config.default `Tegra3) in
  let pc = Sentry_core.Sentry.page_crypt sentry in
  let frame = Sentry_kernel.Frame_alloc.alloc system.Sentry_core.System.frames in
  Test.make ~name:"fig4/page-encrypt-in-place"
    (Staged.stage (fun () -> Sentry_core.Page_crypt.encrypt_frame pc ~pid:1 ~vpn:7 ~frame))

(* Table 3 / cold boot: key-schedule scan rate *)
let t_keyscan =
  let prng = Prng.create ~seed:3 in
  let haystack = Prng.bytes prng (256 * Units.kib) in
  let dump = Sentry_attacks.Memdump.of_bytes ~label:"bench" ~base:0 haystack in
  Test.make ~name:"table3/key-schedule-scan-256KB"
    (Staged.stage (fun () -> ignore (Sentry_attacks.Key_finder.scan dump)))

(* Figs 6-8: one background page-in through the locked cache *)
let t_page_in =
  let system = Sentry_core.System.boot `Tegra3 ~seed:4 in
  let sentry = Sentry_core.Sentry.install system (Sentry_core.Config.default `Tegra3) in
  let proc = Sentry_core.System.spawn system ~name:"bench" ~bytes:(64 * Units.kib) in
  Sentry_core.Sentry.mark_sensitive sentry proc;
  Sentry_core.Sentry.enable_background sentry proc;
  ignore (Sentry_core.Sentry.lock sentry);
  let region = List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace) in
  let vaddr = region.Sentry_kernel.Address_space.vstart in
  let table = Sentry_kernel.Address_space.table proc.Sentry_kernel.Process.aspace in
  let bg = Option.get (Sentry_core.Sentry.background_engine sentry) in
  Test.make ~name:"fig6-8/background-page-in+out"
    (Staged.stage (fun () ->
         ignore (Sentry_kernel.Vm.read system.Sentry_core.System.vm proc ~vaddr ~len:8);
         Sentry_core.Background.evict_all bg;
         (match Sentry_kernel.Page_table.find table ~vpn:(Sentry_kernel.Page.vpn_of vaddr) with
         | Some pte -> pte.Sentry_kernel.Page_table.young <- false
         | None -> ())))

let tests =
  [
    t_aes_block;
    t_aes_instrumented;
    t_sha256;
    t_aes_ct;
    t_xts_sector;
    t_remanence;
    t_page_encrypt;
    t_keyscan;
    t_page_in;
  ]

(** Seconds the ladder spends on each of its rungs. *)
let ladder_budget_s = 0.4

(** Run the suite and print one line per test, then one per ladder
    rung. *)
let run () =
  print_endline "### Bechamel microbenchmarks (host-side implementation costs)\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None () in
  let grouped = Test.make_grouped ~name:"sentry" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (t :: _) -> rows := (name, t) :: !rows
      | Some [] | None -> ())
    results;
  List.iter
    (fun (name, t) ->
      if t >= 1e6 then Printf.printf "  %-44s %12.2f ms/run\n" name (t /. 1e6)
      else if t >= 1e3 then Printf.printf "  %-44s %12.2f us/run\n" name (t /. 1e3)
      else Printf.printf "  %-44s %12.1f ns/run\n" name t)
    (List.sort compare !rows);
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-44s %12.2f %s\n" ("ladder/" ^ name) v unit)
    (Perfbench.Ladder.run Perfbench.Span.Off ~budget_s:ladder_budget_s);
  print_newline ()
