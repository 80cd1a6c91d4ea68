(** Secure On Suspend (§7): tie Sentry's encrypt-on-lock to the
    platform's suspend-to-RAM cycle.

    Phones suspend to DRAM (ACPI S3-style) after brief inactivity or a
    power-button press; DRAM self-refreshes while everything else
    powers down — exactly the state cold-boot attacks target.  This
    module runs the lock path on every suspend and tracks the wake
    reasons the paper lists: user interaction (home/camera/power
    buttons), hardware events such as an incoming call, and periodic
    timers.

    Waking does {e not} unlock: the device resumes PIN-locked, and
    only background-enabled sensitive apps may compute (over the
    encrypted-DRAM pager) until the PIN is entered. *)

open Sentry_util
open Sentry_soc

type wake_reason = User_interaction | Incoming_call | Timer_alarm

let wake_reason_name = function
  | User_interaction -> "user interaction"
  | Incoming_call -> "incoming call"
  | Timer_alarm -> "timer alarm"

type t = {
  sentry : Sentry.t;
  mutable suspended : bool;
  mutable suspend_count : int;
  mutable wake_counts : (wake_reason * int) list;
}

let create sentry =
  { sentry; suspended = false; suspend_count = 0; wake_counts = [] }

let suspended t = t.suspended

exception Already_suspended
exception Not_suspended

(** [suspend t] — screen off, encrypt-on-lock (unless the device is
    already locked from an earlier cycle), then power-collapse: the
    CPU stops (simulated time jumps at wake).  Returns the lock-path
    stats when an encryption pass actually ran. *)
let suspend t =
  if t.suspended then raise Already_suspended;
  let stats = if Sentry.is_locked t.sentry then None else Some (Sentry.lock t.sentry) in
  t.suspended <- true;
  t.suspend_count <- t.suspend_count + 1;
  stats

let bump_wake t reason =
  let n = try List.assoc reason t.wake_counts with Not_found -> 0 in
  t.wake_counts <- (reason, n + 1) :: List.remove_assoc reason t.wake_counts

(** [wake t ~reason ~slept_s] — resume execution after [slept_s]
    seconds of sleep.  The device stays PIN-locked; sensitive state
    stays encrypted (or confined to locked cache for background
    apps). *)
let wake t ~reason ~slept_s =
  if not t.suspended then raise Not_suspended;
  let machine = System.machine (Sentry.system t.sentry) in
  Clock.advance (Machine.clock machine) (slept_s *. Units.s);
  t.suspended <- false;
  bump_wake t reason

(** [wake_and_unlock t ~pin ~slept_s] — the user-interaction path:
    wake, then PIN-unlock. *)
let wake_and_unlock t ~pin ~slept_s =
  wake t ~reason:User_interaction ~slept_s;
  Sentry.unlock t.sentry ~pin

(** A timer-driven background service cycle: wake on alarm, run [work]
    (e.g. a mail poll over the encrypted-DRAM pager), suspend again.
    The device never leaves the locked state: re-suspension goes
    through [suspend] — which is a pure state-machine step here, since
    the device is still Locked and no second encrypt pass runs — and
    happens even when [work] raises, so an aborted service cycle can
    never strand the device awake with DRAM exposed. *)
let background_service_cycle t ~slept_s work =
  wake t ~reason:Timer_alarm ~slept_s;
  Fun.protect
    ~finally:(fun () -> if not t.suspended then ignore (suspend t))
    work

let counts t = (t.suspend_count, t.wake_counts)
