(** Fleet throughput: the batched lock/unlock walk over a multi-tenant
    fleet at N ∈ {4, 32, 128} processes.

    The host-side [lock_pages_per_s] column is environment sensitive;
    the simulated columns (unlock-to-first-touch, AES energy) are
    deterministic. *)

open Sentry_util
open Sentry_workloads

let fleet_sizes = [ 4; 32; 128 ]

(* Best host throughput over [trials] runs: the simulated outputs are
   deterministic, so repeated runs only tighten the wall-clock
   estimate against scheduler noise. *)
let best_of ~trials cfg =
  let best = ref None in
  for _ = 1 to trials do
    let s = Fleet.run cfg in
    match !best with
    | Some b when b.Fleet.lock_pages_per_s >= s.Fleet.lock_pages_per_s -> ()
    | _ -> best := Some s
  done;
  Option.get !best

let measure ?(trials = 3) n =
  best_of ~trials
    {
      Fleet.default with
      Fleet.procs = n;
      pages_per_proc = 16;
      cycles = 2;
      service_wakes = 1;
      io_sectors = 8;
    }

let run () =
  let rows =
    List.map
      (fun n ->
        let b = measure n in
        [
          string_of_int n;
          string_of_int b.Fleet.pages_locked;
          Printf.sprintf "%.0f" b.Fleet.lock_pages_per_s;
          Printf.sprintf "%.1f us" (b.Fleet.unlock_to_first_touch_ns /. 1e3);
          Printf.sprintf "%.3f J" b.Fleet.energy_j;
        ])
      fleet_sizes
  in
  [
    Table.make ~title:"Fleet: batched lock/unlock throughput"
      ~header:
        [ "Procs"; "Pages locked"; "Batched pages/s"; "Unlock->touch (sim)"; "AES energy (sim)" ]
      ~notes:[ "Host wall-clock throughput, best of 3 runs; simulated columns are deterministic." ]
      rows;
  ]
