(** Backend race ("backends"): the three protection backends —
    [Batched], the MemShield-style [Offload] command queue and the
    MProtect-style [No_access] mapping revocation — over the
    Fig-2/Fig-4 app cycle, the fleet churn workload and the open-loop
    server, plus a measured lock-size crossover sweep.

    The interesting structure is where each backend wins:

    - [No_access] locks almost for free (no bytes move) but leaves
      cleartext in DRAM — table3 concedes cold boot/DMA by design.
    - [Offload] beats the CPU path on bulk lock walks once the batch
      is deep enough to amortise its fixed completion latency, and
      loses the lazy single-fault path everywhere — that break-even
      batch size is the measured crossover this experiment reports
      (and BENCH_sentry.json records). *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core
open Sentry_workloads

(* ----------------------- micro lock/fault ------------------------ *)

(* One lock walk over a [pages]-page process: the simulated elapsed
   time is exactly what the backend's lock strategy costs. *)
let lock_elapsed_ns backend ~pages =
  let system = System.boot `Nexus4 ~seed:5 in
  let sentry = Sentry.install system (Config.default `Nexus4) in
  Sentry.set_backend sentry backend;
  let proc = System.spawn system ~name:"sweep" ~bytes:(pages * Page.size) in
  Sentry.mark_sensitive sentry proc;
  (Sentry.lock sentry).Encrypt_on_lock.elapsed_ns

(* One lazy fault after unlock: the per-page unlock-to-first-touch
   cost, where the offload queue's fixed latency is pure loss. *)
let fault_elapsed_ns backend =
  let system = System.boot `Nexus4 ~seed:6 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Nexus4) in
  Sentry.set_backend sentry backend;
  let proc = System.spawn system ~name:"fault" ~bytes:(8 * Page.size) in
  Sentry.mark_sensitive sentry proc;
  ignore (Sentry.lock sentry);
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> failwith "Exp_backends: unlock failed");
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  let t0 = Machine.now machine in
  Vm.touch system.System.vm proc ~vaddr:region.Address_space.vstart;
  Machine.now machine -. t0

let sweep_sizes = [ 1; 2; 4; 8; 16; 32; 64 ]

(** Smallest lock batch (pages) where the offload queue's simulated
    lock walk is at least as fast as the batched CPU path — [None] if
    it never catches up over the sweep. *)
let lock_crossover_pages () =
  List.find_opt
    (fun n ->
      lock_elapsed_ns Sentry.Offload ~pages:n <= lock_elapsed_ns Sentry.Batched ~pages:n)
    sweep_sizes

(* --------------------------- workloads --------------------------- *)

(** The Fig-2/Fig-4 app cycle (MP3 profile — the smallest) under each
    backend. *)
let app_race () =
  List.map (fun b -> (b, Exp_apps.run_app ~backend:b Apps.mp3)) Backend.all_kinds

let fleet_cfg =
  { Fleet.default with Fleet.procs = 6; pages_per_proc = 8; cycles = 2 }

let fleet_race () =
  List.map (fun b -> (b, Fleet.run { fleet_cfg with Fleet.backend = b })) Backend.all_kinds

let serve_cfg =
  let module Sv = Sentry_serve.Server in
  { Sv.default with Sv.tenants = 6; duration_s = 0.5 }

let serve_race () =
  let module Sv = Sentry_serve.Server in
  List.map (fun b -> (b, Sv.run { serve_cfg with Sv.backend = b })) Backend.all_kinds

(* ----------------------------- tables ---------------------------- *)

let run () =
  let module Sv = Sentry_serve.Server in
  let app = app_race () in
  let fleet = fleet_race () in
  let serve = serve_race () in
  let app_rows =
    List.map
      (fun (b, (m : Exp_apps.metrics)) ->
        [
          Backend.kind_name b;
          Printf.sprintf "%.3f s" m.Exp_apps.lock_s;
          Printf.sprintf "%.1f MB" m.Exp_apps.lock_mb;
          Printf.sprintf "%.3f s" m.Exp_apps.unlock_s;
          Printf.sprintf "%.2f J" (m.Exp_apps.lock_j +. m.Exp_apps.unlock_j);
        ])
      app
  in
  let fleet_rows =
    List.map
      (fun (b, (s : Fleet.stats)) ->
        let p99 =
          match List.assoc_opt "medium" s.Fleet.latency_by_class with
          | Some l -> Printf.sprintf "%.1f us" (l.Fleet.p99_ns /. 1e3)
          | None -> "-"
        in
        [
          Backend.kind_name b;
          Printf.sprintf "%.3f ms" (s.Fleet.sim_elapsed_ns /. 1e6);
          Printf.sprintf "%.1f us" (s.Fleet.unlock_to_first_touch_ns /. 1e3);
          p99;
          Printf.sprintf "%.4f J" s.Fleet.energy_j;
        ])
      fleet
  in
  let serve_rows =
    List.map
      (fun (b, (s : Sv.stats)) ->
        [
          Backend.kind_name b;
          string_of_int s.Sv.requests;
          string_of_int s.Sv.served;
          Printf.sprintf "%.3f" s.Sv.shed_rate;
          Printf.sprintf "%.3f ms" (s.Sv.sim_elapsed_ns /. 1e6);
        ])
      serve
  in
  let sweep_rows =
    List.map
      (fun n ->
        let b = lock_elapsed_ns Sentry.Batched ~pages:n in
        let o = lock_elapsed_ns Sentry.Offload ~pages:n in
        [
          string_of_int n;
          Printf.sprintf "%.1f us" (b /. 1e3);
          Printf.sprintf "%.1f us" (o /. 1e3);
          (if o <= b then "offload" else "batched");
        ])
      sweep_sizes
  in
  let crossover_note =
    match lock_crossover_pages () with
    | Some n -> Printf.sprintf "Offload overtakes the batched CPU path at %d-page lock walks." n
    | None -> "Offload never overtakes the batched CPU path over the sweep."
  in
  let fault_rows =
    List.map
      (fun b -> [ Backend.kind_name b; Printf.sprintf "%.1f us" (fault_elapsed_ns b /. 1e3) ])
      Backend.all_kinds
  in
  [
    Table.make ~title:"Backends: MP3 app cycle (Fig 2/4 style, simulated)"
      ~header:[ "Backend"; "Lock"; "Locked MB"; "Unlock+resume"; "AES J" ]
      ~notes:
        [
          "no-access moves no bytes at lock: near-zero lock time and AES energy,";
          "at the price of cleartext DRAM (see table3 / THREAT_MODEL.md).";
        ]
      app_rows;
    Table.make ~title:"Backends: lock-size sweep (batched vs offload, simulated)"
      ~header:[ "Pages"; "Batched"; "Offload"; "Winner" ]
      ~notes:[ crossover_note ] sweep_rows;
    Table.make ~title:"Backends: single lazy fault after unlock (simulated)"
      ~header:[ "Backend"; "Unlock->first-touch" ]
      ~notes:
        [
          "The offload queue pays its fixed completion latency per fault,";
          "so it loses the lazy path even where it wins bulk locks.";
        ]
      fault_rows;
    Table.make ~title:"Backends: fleet churn (6 procs x 8 pages x 2 cycles)"
      ~header:[ "Backend"; "Sim elapsed"; "Unlock->touch mean"; "Medium p99"; "AES J" ]
      fleet_rows;
    Table.make ~title:"Backends: open-loop serve (6 tenants, 0.5 s)"
      ~header:[ "Backend"; "Requests"; "Served"; "Shed rate"; "Sim elapsed" ]
      serve_rows;
  ]
