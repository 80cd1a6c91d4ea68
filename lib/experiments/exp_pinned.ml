(** §10's architecture suggestion, evaluated: a platform with a
    dedicated pin-on-SoC memory (hardware DMA-inaccessible, boot-ROM
    erased).

    Two tables: the security matrix for a secret in pinned memory
    (every attack mounted for real, plus JTAG with and without the
    fuse burned), and the setup-complexity comparison that is the
    section's actual argument — how many privileged steps each on-SoC
    alternative needs before it is safe to use. *)

open Sentry_util
open Sentry_soc
open Sentry_core
open Sentry_attacks

let secret = Bytes.of_string "PINNED-SECRET-0x5010"

let fresh ~seed =
  let system = System.boot `Future ~seed in
  let machine = System.machine system in
  let pm = Option.get (Machine.pinned machine) in
  Machine.write machine (Sram.region pm).Memmap.base secret;
  (system, machine)

let security_matrix () =
  let cell name f =
    [ name; (if f () then "UNSAFE" else "Safe") ]
  in
  let rows =
    [
      cell "Cold Boot (reflash)" (fun () ->
          let _, machine = fresh ~seed:1 in
          Cold_boot.succeeds machine Cold_boot.Device_reflash ~secret);
      cell "Cold Boot (warm reboot)" (fun () ->
          let _, machine = fresh ~seed:2 in
          Cold_boot.succeeds machine Cold_boot.Os_reboot ~secret);
      cell "Bus Monitoring" (fun () ->
          let _, machine = fresh ~seed:3 in
          let monitor = Bus_monitor.attach machine in
          let pm = Option.get (Machine.pinned machine) in
          ignore (Machine.read machine (Sram.region pm).Memmap.base 32);
          let seen = Bus_monitor.saw_secret monitor ~secret in
          Bus_monitor.detach monitor;
          seen);
      cell "DMA Attack" (fun () ->
          let _, machine = fresh ~seed:4 in
          Dma_attack.succeeds machine ~secret);
      cell "JTAG (fuse intact)" (fun () ->
          let _, machine = fresh ~seed:5 in
          Jtag_attack.succeeds machine ~secret);
      cell "JTAG (fuse burned)" (fun () ->
          let _, machine = fresh ~seed:6 in
          Fuse.burn_jtag_fuse (Machine.fuse machine);
          Jtag_attack.succeeds machine ~secret);
    ]
  in
  Table.make ~title:"S10 pinned memory: mounted attacks vs a pinned secret"
    ~header:[ "Attack"; "Verdict" ]
    ~notes:
      [
        "Warm reboots also come up clean: the boot ROM erase is immutable and";
        "unconditional, closing the replace-the-firmware vector of S4.3.";
        "JTAG stays out of scope for Sentry because it is preventable --";
        "exactly as the fuse rows show.";
      ]
    rows

let complexity () =
  Table.make ~title:"S10: privileged setup steps before each storage is safe"
    ~header:[ "Storage"; "Steps"; "What can go wrong" ]
    ~notes:
      [
        "The section's argument: Sentry works with retrofitted mechanisms, but a";
        "purpose-built pin-on-SoC abstraction deletes every step in this table.";
      ]
    [
      [
        "Locked L2 way";
        "secure-world entry; masked flush; lockdown program; 128KB warm;";
        "stock kernel flush unlocks + leaks (S4.2); firmware may disable locking";
      ];
      [
        "";
        "re-lock; flush-mask bookkeeping on every maintenance call site";
        "(Nexus 4); steals L2 capacity (Fig 10)";
      ];
      [
        "iRAM";
        "TrustZone DMA window denial; avoid 64KB firmware area";
        "forgetting the DMA denial leaves keys DMA-readable (S4.4);";
      ];
      [ ""; ""; "firmware zeroing behaviour is per-vendor (S4.3)" ];
      [
        "Pinned (S10)";
        "none -- allocate and use";
        "nothing: DMA-inaccessible and boot-ROM-erased by construction";
      ];
    ]

let sentry_on_future () =
  (* Sentry installed with pinned storage end to end: lock, attack,
     unlock. *)
  let system = System.boot `Future ~seed:7 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Future) in
  let proc = System.spawn system ~name:"app" ~bytes:(64 * Units.kib) in
  let region = List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace) in
  let user_secret = Bytes.of_string "user data secret" in
  System.fill_region system proc region user_secret;
  Sentry.mark_sensitive sentry proc;
  Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  let bg_read =
    Sentry_kernel.Vm.read system.System.vm proc
      ~vaddr:region.Sentry_kernel.Address_space.vstart ~len:16
  in
  let dma_safe = not (Dma_attack.succeeds machine ~secret:user_secret) in
  let unlocked =
    match Sentry.unlock sentry ~pin:"1234" with Ok _ -> true | Error _ -> false
  in
  Table.make ~title:"Sentry on the future platform (pinned keys + locked-cache paging)"
    ~header:[ "Check"; "Result" ]
    [
      [ "storage picked"; Onsoc.describe (Sentry.onsoc sentry) ];
      [ "background read while locked"; Printf.sprintf "%B" (Bytes.equal bg_read user_secret) ];
      [ "DMA attack while locked"; (if dma_safe then "defence held" else "COMPROMISED") ];
      [ "PIN unlock"; Printf.sprintf "%B" unlocked ];
    ]

let run () = [ security_matrix (); complexity (); sentry_on_future () ]
