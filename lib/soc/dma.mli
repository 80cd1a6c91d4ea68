(** DMA controller: transfers bypass the L2 cache (coherence is
    software-managed, §4.4) and are subject only to TrustZone's deny
    list — the substrate of both legitimate device I/O and the §3.1
    DMA attack. *)

type error =
  | Denied
  | Bad_address
  | Faulted  (** injected transfer fault: the engine aborted with a bus error *)

type t

val create :
  dram:Dram.t -> iram:Sram.t -> tz:Trustzone.t -> clock:Clock.t -> energy:Energy.t -> t

(** Device-initiated read of physical memory: DRAM as it is (stale or
    not), iRAM unless denied. *)
val read : t -> addr:int -> len:int -> (Bytes.t, error) result

(** Device-initiated write (incoming buffer — or injection attempt). *)
val write : t -> addr:int -> Bytes.t -> (unit, error) result

(** [set_read_hook t f] — [f] fires on every successful
    device-initiated read with the taint join of the bytes that left
    through the peripheral. *)
val set_read_hook : t -> (addr:int -> len:int -> taint:Taint.level -> unit) -> unit

val clear_read_hook : t -> unit
