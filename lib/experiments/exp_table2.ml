(** Table 2: iRAM and DRAM data-remanence rates on the tablet.

    Fill both memories with an 8-byte pattern, force each of the three
    reset types, dump what survives and count pattern occurrences —
    the paper's exact methodology (§4.1), five trials each. *)

open Sentry_util
open Sentry_soc
open Sentry_attacks

let pattern = Bytes.of_string "\xde\xad\xbe\xef\x13\x37\xc0\xde"

let trial variant ~seed =
  let machine = Machine.create ~seed (Machine.tegra3 ~dram_size:(16 * Units.mib) ()) in
  (* the experiment process fills all of DRAM and iRAM *)
  Bytes_util.fill_pattern (Dram.raw (Machine.dram machine)) pattern;
  Bytes_util.fill_pattern (Sram.raw (Machine.iram machine)) pattern;
  let img = Cold_boot.image machine variant in
  ( Memdump.remanence_ratio img.Cold_boot.iram ~pattern,
    Memdump.remanence_ratio img.Cold_boot.dram ~pattern )

let measure variant =
  let trials = 5 in
  let iram = Array.make trials 0.0 and dram = Array.make trials 0.0 in
  for i = 0 to trials - 1 do
    let ir, dr = trial variant ~seed:(1000 + (17 * i) + Hashtbl.hash (Cold_boot.variant_name variant)) in
    iram.(i) <- ir;
    dram.(i) <- dr
  done;
  (Stats.mean iram, Stats.mean dram)

let paper = [ (100.0, 96.4); (0.0, 97.5); (0.0, 0.1) ]

let run () =
  let variants =
    [ Cold_boot.Os_reboot; Cold_boot.Device_reflash; Cold_boot.Two_second_reset ]
  in
  let rows =
    List.map2
      (fun variant (paper_iram, paper_dram) ->
        let iram, dram = measure variant in
        [
          Cold_boot.variant_name variant;
          Printf.sprintf "%.1f%%" (100.0 *. iram);
          Printf.sprintf "%.1f%%" (100.0 *. dram);
          Printf.sprintf "%.1f%% / %.1f%%" paper_iram paper_dram;
        ])
      variants paper
  in
  [
    Table.make ~title:"Table 2: data remanence (5 trials each)"
      ~header:[ "Memory preserved"; "iRAM"; "DRAM"; "paper (iRAM/DRAM)" ]
      ~notes:
        [
          "iRAM loses everything on any power loss (firmware zeroes it at power-on boot).";
          "DRAM keeps >95% through short power losses -- the cold-boot window.";
        ]
      rows;
  ]
