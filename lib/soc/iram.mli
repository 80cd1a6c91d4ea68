(** On-SoC internal SRAM: CPU accesses never cross the external bus;
    firmware zeroes it at power-on boot (cold-boot safe, Table 2);
    ordinary memory to DMA unless TrustZone denies the window. *)

type t

val create : clock:Clock.t -> energy:Energy.t -> size:int -> t
val region : t -> Memmap.region
val size : t -> int
val contains : t -> int -> bool

(** Read straight into [buf] at [off], no allocation. *)
val read_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** Write the [len]-byte view of [buf] at [off].  Writing inside the
    firmware region marks the platform crashed.  [level] labels the
    written bytes when taint tracking is on. *)
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

(** False once the firmware scratch area has been clobbered (§4.5). *)
val firmware_ok : t -> bool

(** Direct view (what an un-denied DMA window reads). *)
val raw : t -> Bytes.t

val snapshot : t -> Bytes.t

(** Power-on-reset firmware behaviour: zero everything. *)
val firmware_clear : t -> unit
