(** The fault vocabulary of the injection subsystem.

    A fault is what goes wrong at a hook point; the {e plan} (see
    [Plan]) decides where and when.  Kinds mirror the hazards the
    crash-consistency work defends against: power removed mid-walk,
    a reset without power loss, a DMA transfer aborting, and DRAM
    bit flips (disturbance errors / marginal cells). *)

type kind =
  | Power_loss  (** power removed: DRAM decays, iRAM firmware-cleared on boot *)
  | Reset  (** reset without power loss (watchdog, kernel panic) *)
  | Dma_error  (** a DMA transfer aborts with a bus error *)
  | Bit_flip of int  (** [n] random DRAM bits flip silently *)

let name = function
  | Power_loss -> "power-loss"
  | Reset -> "reset"
  | Dma_error -> "dma-error"
  | Bit_flip n -> Printf.sprintf "bit-flip(%d)" n
