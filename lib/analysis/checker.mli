(** The rule-engine vocabulary of the secret-flow verifier.

    A checker is a pluggable invariant over the simulated machine: it
    looks at taint shadows, hardware registers and kernel state and
    reports findings.  Checkers are driven by {e events} — lock-state
    transitions, bus transactions, cache evictions, DMA reads, or an
    explicit on-demand sweep — delivered by [Engine]. *)

(** What woke the engine up. *)
type event =
  | Transition of {
      old_state : Sentry_core.Lock_state.state;
      new_state : Sentry_core.Lock_state.state;
    }  (** the screen-lock state machine moved *)
  | Bus_txn of Sentry_soc.Bus.transaction  (** something crossed the external bus *)
  | Eviction of { way : int; addr : int; locked : bool }
      (** the L2 wrote a dirty line back to DRAM *)
  | Dma_read of { addr : int; len : int; taint : Sentry_soc.Taint.level }
      (** a device-initiated read completed *)
  | On_demand  (** explicit sweep ([Engine.check_now]) *)

(** One invariant.  [check] inspects the machine behind [Sentry.t] for
    [event] and returns findings; [is_problematic] selects the ones
    that are violations (a checker may also return informational
    findings); [to_string] renders a finding for reports. *)
module type CHECKER = sig
  type t

  val name : string
  val check : Sentry_core.Sentry.t -> event -> t list
  val is_problematic : t -> bool
  val to_string : t -> string
end

(** A checker with its finding type sealed in, so heterogeneous rule
    sets can live in one list. *)
type packed = Packed : (module CHECKER with type t = 'a) -> packed

val packed_name : packed -> string

(** A problematic finding, stamped with the simulated time it was
    observed. *)
type violation = { checker : string; message : string; time_ns : float }

val violation_to_string : violation -> string

(** Evaluate one packed checker against [event]; problematic findings
    become violations stamped with the current simulated time. *)
val run_packed : Sentry_core.Sentry.t -> event -> packed -> violation list
