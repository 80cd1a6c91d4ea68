(** The §10 "pin-on-SoC" architecture suggestion, implemented for the
    hypothetical future platform: small dedicated on-SoC memory,
    hardware-inaccessible to DMA, erased by immutable boot ROM on
    every reset. *)

type t

val create : clock:Clock.t -> energy:Energy.t -> size:int -> t
val region : t -> Memmap.region
val size : t -> int
val contains : t -> int -> bool

(** Read straight into [buf] at [off] / write the [len]-byte view of
    [buf] at [off], no allocation. *)
val read_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

val write_from : t -> ?level:Taint.level -> int -> Bytes.t -> off:int -> len:int -> unit

(** Lazily allocate the taint shadow. *)
val enable_taint : t -> unit

(** Taint join over a range ([Public] when tracking is off). *)
val taint_range : t -> int -> int -> Taint.level

(** Boot-ROM erase — runs on every boot, warm or cold. *)
val boot_rom_clear : t -> unit

(** Direct array view (test tooling; physically reaching it means
    decapping the SoC). *)
val raw : t -> Bytes.t
