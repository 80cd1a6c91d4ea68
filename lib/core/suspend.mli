(** Secure On Suspend (§7): run encrypt-on-lock on every
    suspend-to-RAM, track wake reasons, and let background services
    run timer-wake cycles without ever unlocking. *)

type wake_reason = User_interaction | Incoming_call | Timer_alarm

val wake_reason_name : wake_reason -> string

type t

val create : Sentry.t -> t
val suspended : t -> bool

exception Already_suspended
exception Not_suspended

(** Screen off + encrypt-on-lock (skipped if already locked from an
    earlier cycle) + power collapse.  Returns the lock stats when an
    encryption pass actually ran. *)
val suspend : t -> Encrypt_on_lock.stats option

(** Resume after [slept_s] seconds; the device stays PIN-locked. *)
val wake : t -> reason:wake_reason -> slept_s:float -> unit

(** Wake via user interaction, then PIN-unlock. *)
val wake_and_unlock :
  t -> pin:string -> slept_s:float -> (Decrypt_on_unlock.stats, Lock_state.unlock_error) result

(** Timer wake → run [work] (still locked) → re-suspend.  Re-suspension
    goes through [suspend] and runs even when [work] raises, so an
    aborted service cycle never strands the device awake. *)
val background_service_cycle : t -> slept_s:float -> (unit -> 'a) -> 'a

(** (suspend count, wake counts per reason). *)
val counts : t -> int * (wake_reason * int) list
