(** Cold-boot attacks (§3.1), in the three variants of the Table 2
    experiment.

    The attacker forces a reset, boots code of their choosing (a
    malicious OS, the flasher, or a dumper device) and images whatever
    the memories still hold.  What survives is governed by the
    machine's remanence model; what the attacker then does with the
    image is [Key_finder] / pattern search. *)

open Sentry_soc

type variant = Os_reboot | Device_reflash | Two_second_reset

let variant_name = function
  | Os_reboot -> "OS reboot (no power loss)"
  | Device_reflash -> "device reflash (power loss)"
  | Two_second_reset -> "2 second reset (power loss)"

let reboot_of_variant = function
  | Os_reboot -> Machine.Warm
  | Device_reflash -> Machine.Reflash
  | Two_second_reset -> Machine.Hard_reset 2.0

type image = { dram : Memdump.t; iram : Memdump.t }

(** [image machine variant] — force the reset {e once}, then dump both
    memories.  Destructive (the machine really reboots), but every
    subsequent question — key scan, secret search — is answered
    against this one image, the way a real attacker works.  The
    [succeeds] one-shot below is a wrapper; calling it twice mounts two
    attacks on two {e different} machine states (each reset decays
    DRAM further), a footgun the image API exists to remove. *)
let image machine variant =
  Machine.reboot machine (reboot_of_variant variant);
  let dram = Machine.dram machine in
  let iram = Machine.iram machine in
  {
    dram = Memdump.of_bytes ~label:"DRAM" ~base:(Dram.region dram).Memmap.base (Dram.snapshot dram);
    iram = Memdump.of_bytes ~label:"iRAM" ~base:(Sram.region iram).Memmap.base (Sram.snapshot iram);
  }

(** Scan an already-captured image for AES key schedules. *)
let keys_of_image img = Key_finder.keys img.dram @ Key_finder.keys img.iram

(** Is [secret] findable in an already-captured image?  Matching
    tolerates ~15% decayed bytes, as real cold-boot tooling
    error-corrects. *)
let secret_in_image img ~secret =
  Memdump.contains_fuzzy img.dram secret ~min_match:0.85
  || Memdump.contains_fuzzy img.iram secret ~min_match:0.85

(** [succeeds machine variant ~secret] — can the attacker find
    [secret] anywhere after the reset? *)
let succeeds machine variant ~secret = secret_in_image (image machine variant) ~secret
