(** Fault kinds the injection subsystem can fire at hook points. *)

type kind =
  | Power_loss  (** power removed: DRAM decays, iRAM firmware-cleared on boot *)
  | Reset  (** reset without power loss (watchdog, kernel panic) *)
  | Dma_error  (** a DMA transfer aborts with a bus error *)
  | Bit_flip of int  (** [n] random DRAM bits flip silently *)

val name : kind -> string
