(** JTAG attacks (§3.2 — out of the paper's threat model because they
    are {e preventable}): a debug probe soldered to the JTAG pads can
    read every memory on the device, including on-SoC storage — unless
    the vendor burned the JTAG-disable fuse at provisioning time.

    This module exists to demonstrate that provisioning step: the same
    dump that succeeds on an unfused device fails on a fused one. *)

open Sentry_soc

type result = Dumped of Memdump.t list | Jtag_disabled

(** [dump machine] — attach the debug probe.  With JTAG enabled the
    probe halts the core and reads {e everything}: DRAM, iRAM, even
    pinned memory; with the fuse burned the probe gets nothing. *)
let dump machine =
  if not (Fuse.jtag_enabled (Machine.fuse machine)) then Jtag_disabled
  else begin
    let dram = Machine.dram machine in
    let sram label s =
      Memdump.of_bytes ~label ~base:(Sram.region s).Memmap.base (Sram.snapshot s)
    in
    Dumped
      (Memdump.of_bytes ~label:"DRAM-via-JTAG" ~base:(Dram.region dram).Memmap.base
         (Dram.snapshot dram)
      :: sram "iRAM-via-JTAG" (Machine.iram machine)
      :: Option.to_list (Option.map (sram "pinned-via-JTAG") (Machine.pinned machine)))
  end

(** [succeeds machine ~secret] — does the probe recover the secret? *)
let succeeds machine ~secret =
  match dump machine with
  | Jtag_disabled -> false
  | Dumped dumps -> List.exists (fun d -> Memdump.contains d secret) dumps
