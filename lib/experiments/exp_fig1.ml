(** Fig 1: decrypt-on-page-in, traced step by step on live hardware
    state.

    A background-enabled sensitive app is locked, then touches one
    page; each step of the Fig 1 sequence is checked against the
    simulator: PTE young/encrypted bits, which cache way holds the
    page, and whether DRAM behind the locked line ever sees
    plaintext. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

let pattern = Bytes.of_string "Fig1-plaintext!!"

let run () =
  let system = System.boot `Tegra3 ~seed:0xf16 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"fig1-app" ~bytes:(64 * Units.kib) in
  let region = List.hd (Address_space.regions proc.Process.aspace) in
  System.fill_region system proc region pattern;
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  let vaddr = region.Address_space.vstart in
  let vpn = Page.vpn_of vaddr in
  let pte () =
    match Page_table.find (Address_space.table proc.Process.aspace) ~vpn with
    | Some p -> p
    | None -> assert false
  in
  let dram_raw () = Dram.raw (Machine.dram machine) in
  let observations = ref [] in
  let observe step fact = observations := [ step; fact ] :: !observations in
  ignore (Sentry.lock sentry);
  let p = pte () in
  observe "after lock"
    (Printf.sprintf "PTE: young=%b encrypted=%b frame=0x%08x; plaintext in DRAM: %b"
       p.Page_table.young p.Page_table.encrypted p.Page_table.frame
       (Bytes_util.contains (dram_raw ()) pattern));
  (* the background app touches the page: young-bit trap fires *)
  let data = Vm.read system.System.vm proc ~vaddr ~len:16 in
  let p = pte () in
  let way =
    match Pl310.lookup (Machine.l2 machine) p.Page_table.frame with
    | Some w -> string_of_int w
    | None -> "none (BUG)"
  in
  observe "step 1-2: copy into locked way + decrypt in place"
    (Printf.sprintf "page now at 0x%08x (locked-cache arena), resident in L2 way %s"
       p.Page_table.frame way);
  observe "step 3: PTE updated, young set"
    (Printf.sprintf "PTE: young=%b encrypted=%b backing=%s" p.Page_table.young
       p.Page_table.encrypted
       (match p.Page_table.backing with Some b -> Printf.sprintf "0x%08x" b | None -> "none"));
  observe "read through MMU"
    (Printf.sprintf "returned %S (correct: %b); plaintext in DRAM: %b" (Bytes.to_string data)
       (Bytes.equal data pattern)
       (Bytes_util.contains (dram_raw ()) pattern));
  [
    Table.make ~title:"Fig 1: decrypt on page-in (mechanism trace)"
      ~header:[ "Step"; "Observation" ]
      ~notes:[ "The plaintext exists only in locked L2 lines; DRAM holds ciphertext throughout." ]
      (List.rev !observations);
  ]
