(** The rule-engine vocabulary of the secret-flow verifier.

    A checker is a pluggable invariant over the simulated machine: it
    looks at taint shadows, hardware registers and kernel state and
    reports findings.  Checkers are driven by {e events} — lock-state
    transitions, bus transactions, cache evictions, DMA reads, or an
    explicit on-demand sweep — delivered by [Engine].

    The module-per-rule shape ([name] / [check] / [is_problematic] /
    [to_string], packed as a first-class module) keeps each invariant
    self-contained and lets callers register any subset. *)

open Sentry_soc
open Sentry_core

type event =
  | Transition of { old_state : Lock_state.state; new_state : Lock_state.state }
      (** the screen-lock state machine moved *)
  | Bus_txn of Bus.transaction  (** something crossed the external bus *)
  | Eviction of { way : int; addr : int; locked : bool }
      (** the L2 wrote a dirty line back to DRAM *)
  | Dma_read of { addr : int; len : int; taint : Taint.level }
      (** a device-initiated read completed *)
  | On_demand  (** explicit sweep ([Engine.check_now]) *)

(** One invariant.  [check] inspects the machine behind [Sentry.t] for
    [event] and returns findings; [is_problematic] selects the ones
    that are violations (a checker may also return informational
    findings); [to_string] renders a finding for reports. *)
module type CHECKER = sig
  type t

  val name : string
  val check : Sentry.t -> event -> t list
  val is_problematic : t -> bool
  val to_string : t -> string
end

type packed = Packed : (module CHECKER with type t = 'a) -> packed

let packed_name (Packed (module C)) = C.name

type violation = { checker : string; message : string; time_ns : float }

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s (t=%a)" v.checker v.message Sentry_util.Units.pp_time v.time_ns

let violation_to_string v = Fmt.str "%a" pp_violation v

(** Evaluate one packed checker against [event]; problematic findings
    become violations stamped with the current simulated time. *)
let run_packed sentry event (Packed (module C)) =
  let now = Machine.now (System.machine (Sentry.system sentry)) in
  C.check sentry event
  |> List.filter C.is_problematic
  |> List.map (fun f -> { checker = C.name; message = C.to_string f; time_ns = now })
