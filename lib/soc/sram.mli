(** One bank of on-SoC SRAM — the iRAM of today's parts or the §10
    pin-on-SoC memory.  CPU accesses never cross the external bus.
    Which reset clears a bank is [Machine.reboot]'s decision, and who
    may DMA it is [Dma]'s and [Onsoc]'s. *)

type t

(** [create ~clock ~energy ~name ~base ~size ~firmware_reserved] — a
    zeroed bank at [base].  [name] (["iram"] or ["pinned"]) is the
    energy category its accesses are charged to, and ["soc." ^ name]
    the trace subsystem of its events.  A write below [base +
    firmware_reserved] marks the platform firmware crashed; [0]
    reserves nothing. *)
val create :
  clock:Clock.t ->
  energy:Energy.t ->
  name:string ->
  base:int ->
  size:int ->
  firmware_reserved:int ->
  t

val region : t -> Memmap.region
val contains : t -> int -> bool

(** Read straight into [buf] at [off], no allocation. *)
val read_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** Write the [len]-byte view of [buf] at [off].  Writing inside the
    firmware-reserved bytes marks the platform crashed.  [level]
    labels the written bytes when taint tracking is on. *)
val write_from : t -> ?level:Taint.level -> int -> Bytes.t -> off:int -> len:int -> unit

(** Lazily allocate the taint shadow. *)
val enable_taint : t -> unit

(** Taint join over a range ([Public] when tracking is off). *)
val taint_range : t -> int -> int -> Taint.level

(** Uniformly relabel a range. *)
val set_taint : t -> int -> int -> Taint.level -> unit

(** The raw shadow store (same layout as [raw]); [None] until taint
    tracking is enabled. *)
val shadow : t -> Bytes.t option

(** False once the firmware-reserved bytes have been clobbered (§4.5);
    always true on a bank that reserves none. *)
val firmware_ok : t -> bool

(** Direct view (what an un-denied DMA window, or a probe on the
    decapped SoC, reads). *)
val raw : t -> Bytes.t

val snapshot : t -> Bytes.t

(** Reset behaviour: zero everything and clear the crash mark. *)
val clear : t -> unit
