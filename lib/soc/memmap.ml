(** Physical address map of the simulated SoC.

    Mirrors the flavour of a Tegra 3-class part: a small on-SoC SRAM
    (iRAM) low in the address space and off-SoC DRAM above it.  All
    addresses are plain OCaml ints (63-bit, plenty for a 32-bit map). *)

let iram_base = 0x4000_0000
let default_iram_size = 256 * Sentry_util.Units.kib

(** The first 64 KB of iRAM is reserved by platform firmware; Sentry's
    allocator must never hand it out (overwriting it "crashes the
    tablet", §4.5). *)
let iram_firmware_reserved = 64 * Sentry_util.Units.kib

let dram_base = 0x8000_0000

(* The §10 "architecture suggestion": a small dedicated pin-on-SoC
   memory, hardware-inaccessible to DMA and erased by immutable boot
   ROM.  Only present on the hypothetical future platform. *)
let pinned_base = 0x5000_0000
let default_pinned_size = 64 * Sentry_util.Units.kib

type region = { base : int; size : int }

let region ~base ~size = { base; size }
let limit r = r.base + r.size
let contains r addr = addr >= r.base && addr < limit r

(** [offset r addr] is the offset of [addr] within [r].
    Requires [contains r addr]. *)
let offset r addr =
  assert (contains r addr);
  addr - r.base
