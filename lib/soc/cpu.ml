(** CPU core state relevant to Sentry: the general-purpose register
    file and the IRQ enable flag.

    Sensitive AES state is loaded into registers during computation.
    If an interrupt fires mid-computation, the context switch spills
    the register file to the kernel stack — in DRAM — leaking key
    material (§6.2).  AES_On_SoC brackets its computation with
    [onsoc_disable_irq]/[onsoc_enable_irq]; the latter zeroes the
    registers before re-enabling interrupts. *)

open Sentry_util

(* The IRQ window's two times live in a float-only record, stored
   flat, so the bracket updates them without boxing a float. *)
type irq_window = { mutable disabled_at : float; mutable max_ns : float }

type t = {
  regs : Bytes.t; (* r0-r12 + sp + lr + pc: 16 x 32-bit *)
  clock : Clock.t;
  mutable irqs_enabled : bool;
  window : irq_window;
  mutable reg_taint : Taint.level; (* label of the register file contents *)
  mutable zeroing_enabled : bool; (* fault knob: the onsoc_enable_irq zeroing *)
}

let num_regs = 16
let reg_bytes = num_regs * 4

let create ~clock =
  {
    regs = Bytes.make reg_bytes '\000';
    clock;
    irqs_enabled = true;
    window = { disabled_at = 0.0; max_ns = 0.0 };
    reg_taint = Taint.Public;
    zeroing_enabled = true;
  }

(** Fault-injection knob: with zeroing disabled, [onsoc_enable_irq]
    re-enables interrupts {e without} scrubbing the register file —
    the §6.2 leak the macro exists to prevent. *)
let set_zeroing_enabled t v = t.zeroing_enabled <- v

let irqs_enabled t = t.irqs_enabled

(** Load sensitive working state into the register file (models the
    compiler keeping AES round state in registers).  [taint] labels
    the contents; the register file carries one joint label. *)
let load_regs t ~taint b =
  let n = min (Bytes.length b) reg_bytes in
  Bytes.blit b 0 t.regs 0 n;
  t.reg_taint <- Taint.join t.reg_taint taint

let regs_snapshot t = Bytes.copy t.regs
let reg_taint t = t.reg_taint

let zero_regs t =
  Bytes_util.zero t.regs;
  t.reg_taint <- Taint.Public

(** Plain IRQ disable (no zeroing) — what generic kernel code does. *)
let disable_irqs t =
  if t.irqs_enabled then begin
    t.irqs_enabled <- false;
    t.window.disabled_at <- t.clock.Clock.now_ns
  end

let enable_irqs t =
  if not t.irqs_enabled then begin
    let w = t.window in
    let window = t.clock.Clock.now_ns -. w.disabled_at in
    if window > w.max_ns then w.max_ns <- window;
    (* the masked window renders as one span from disable to enable *)
    if Sentry_obs.Trace.on () then
      Sentry_obs.Trace.emit ~ts:w.disabled_at ~cat:Sentry_obs.Event.Irq ~subsystem:"soc.cpu"
        ~phase:(Sentry_obs.Event.Complete window) "irqs-masked";
    t.irqs_enabled <- true
  end

(** The paper's [onsoc_disable_irq()] macro. *)
let onsoc_disable_irq t = disable_irqs t

(** The paper's [onsoc_enable_irq()] macro: zero every general-purpose
    register, then re-enable interrupts, so a subsequent context
    switch has nothing sensitive to spill. *)
let onsoc_enable_irq t =
  if t.zeroing_enabled then zero_regs t;
  enable_irqs t

(** Longest observed interrupts-off window (the paper measures 160 us
    on average on Tegra 3). *)
let max_irq_window_ns t = t.window.max_ns

(** [with_irqs_off t f] — the AES_On_SoC computation bracket. *)
let with_irqs_off t f =
  onsoc_disable_irq t;
  Fun.protect ~finally:(fun () -> onsoc_enable_irq t) f
