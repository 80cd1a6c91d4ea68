(** Modeled AES performance and energy per variant (Figs 11-12): the
    simulator transforms bytes natively and charges simulated
    time/energy according to the variant that would have run. *)

open Sentry_soc

type variant =
  | Openssl_user
  | Crypto_api_kernel
  | Hw_accelerated of [ `Awake | `Downscaled ]
  | Onsoc_locked_l2
  | Onsoc_iram

type platform = [ `Nexus4 | `Tegra3 ]

(** Modeled throughput on 4 KB pages, MB/s.
    @raise Invalid_argument for impossible platform/variant pairs. *)
val throughput_mb_s : platform:platform -> variant -> float

(** Modeled full-system energy, J per byte. *)
val j_per_byte : variant -> float

(** Advance the simulated clock and energy meter as if [bytes] had
    been transformed by [variant]. *)
val charge : Machine.t -> variant -> bytes:int -> unit
