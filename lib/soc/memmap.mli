(** Physical address map of the simulated SoC: on-SoC SRAM (iRAM) low,
    off-SoC DRAM above. *)

val iram_base : int
val default_iram_size : int

(** The firmware-reserved first 64 KB of iRAM (§4.5). *)
val iram_firmware_reserved : int

val dram_base : int

(** The §10 pin-on-SoC memory (future platforms only). *)
val pinned_base : int

val default_pinned_size : int

type region = { base : int; size : int }

val region : base:int -> size:int -> region
val limit : region -> int
val contains : region -> int -> bool

(** Offset of an address within a region (asserts containment). *)
val offset : region -> int -> int
