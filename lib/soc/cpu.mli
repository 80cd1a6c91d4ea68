(** CPU core state relevant to Sentry: the register file (where
    sensitive cipher state lives during computation) and the IRQ
    enable flag.  A context switch with IRQs enabled spills the
    registers to a DRAM kernel stack; the [onsoc_*] bracket prevents
    that (§6.2). *)

type t

val create : clock:Clock.t -> t
val irqs_enabled : t -> bool

(** Load sensitive working state into the register file; [taint]
    labels the contents (the file carries one joint label). *)
val load_regs : t -> ?taint:Taint.level -> Bytes.t -> unit

val regs_snapshot : t -> Bytes.t

(** Current joint taint label of the register file; [zero_regs]
    resets it to [Public]. *)
val reg_taint : t -> Taint.level

val zero_regs : t -> unit

val enable_irqs : t -> unit

(** The paper's [onsoc_enable_irq()]: zero every register, then
    re-enable interrupts. *)
val onsoc_enable_irq : t -> unit

(** Fault-injection knob: disabling makes [onsoc_enable_irq] skip the
    register scrub (the §6.2 leak the macro prevents). *)
val set_zeroing_enabled : t -> bool -> unit

(** Longest observed interrupts-off window (the paper measures
    ~160 us on average). *)
val max_irq_window_ns : t -> float

(** The AES_On_SoC computation bracket; exception-safe. *)
val with_irqs_off : t -> (unit -> 'a) -> 'a
