(** The phone's crypto accelerator model: per-request setup dominates
    4 KB pages, the engine down-clocks ~4x while the device sleeps,
    and energy per byte is worse than the CPU at page granularity
    (Figs 11-12). *)

open Sentry_soc

type t

(** @raise Invalid_argument on a platform without an accelerator. *)
val create : Machine.t -> t

val set_awake : t -> bool -> unit
val awake : t -> bool

(** Modeled throughput for one request of [bytes]. *)
val throughput_mb_s : t -> bytes:int -> float

val set_key : t -> Bytes.t -> unit
val encrypt : t -> iv:Bytes.t -> Bytes.t -> Bytes.t
val decrypt : t -> iv:Bytes.t -> Bytes.t -> Bytes.t
