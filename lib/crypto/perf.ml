(** Modeled AES performance and energy per variant (Figs 11 and 12).

    The simulator transforms bytes with the fast native cipher and
    charges simulated time/energy according to the variant that would
    have run on hardware.  Constants live in [Sentry_soc.Calib]. *)

open Sentry_soc

type variant =
  | Openssl_user (* generic user-level OpenSSL AES *)
  | Crypto_api_kernel (* generic AES via the kernel Crypto API *)
  | Hw_accelerated of [ `Awake | `Downscaled ]
  | Onsoc_locked_l2 (* AES_On_SoC, state in a locked L2 way *)
  | Onsoc_iram (* AES_On_SoC, state in iRAM *)

type platform = [ `Tegra3 | `Nexus4 ]

let platform_of_machine m =
  match (Machine.config m).Machine.name with
  | "tegra3" -> `Tegra3
  | "nexus4" -> `Nexus4
  | "future" -> `Tegra3 (* same CPU class; pinned memory changes security, not speed *)
  | other -> invalid_arg ("Perf.platform_of_machine: " ^ other)

let variant_name = function
  | Openssl_user -> "Generic AES (OpenSSL)"
  | Crypto_api_kernel -> "Generic AES (kernel CryptoAPI)"
  | Hw_accelerated `Awake -> "Crypto Hardware (awake)"
  | Hw_accelerated `Downscaled -> "Crypto Hardware (down-scaled)"
  | Onsoc_locked_l2 -> "AES_On_SoC (Locked L2)"
  | Onsoc_iram -> "AES_On_SoC (iRAM)"

(** Modeled throughput on 4 KB pages, MB/s. *)
let throughput_mb_s ~(platform : platform) variant =
  match (platform, variant) with
  | `Nexus4, Openssl_user -> Calib.aes_nexus_user_mb_s
  | `Nexus4, Crypto_api_kernel -> Calib.aes_nexus_kernel_mb_s
  | `Nexus4, Hw_accelerated `Awake -> Calib.aes_nexus_hw_awake_mb_s
  | `Nexus4, Hw_accelerated `Downscaled -> Calib.aes_nexus_hw_downscaled_mb_s
  | `Nexus4, Onsoc_locked_l2 ->
      (* no cache locking on the Nexus 4 (locked firmware) *)
      invalid_arg "Perf: locked-L2 AES unavailable on nexus4"
  | `Nexus4, Onsoc_iram ->
      Calib.aes_nexus_kernel_mb_s /. (1.0 +. Calib.aes_onsoc_iram_overhead)
  | `Tegra3, (Openssl_user | Crypto_api_kernel) -> Calib.aes_tegra_generic_mb_s
  | `Tegra3, Onsoc_locked_l2 ->
      Calib.aes_tegra_generic_mb_s /. (1.0 +. Calib.aes_onsoc_locked_l2_overhead)
  | `Tegra3, Onsoc_iram ->
      Calib.aes_tegra_generic_mb_s /. (1.0 +. Calib.aes_onsoc_iram_overhead)
  | `Tegra3, Hw_accelerated _ -> invalid_arg "Perf: no crypto accelerator on tegra3"

(** Modeled full-system energy, J per byte. *)
let j_per_byte = function
  | Openssl_user -> Calib.aes_cpu_j_per_byte
  | Crypto_api_kernel | Onsoc_locked_l2 | Onsoc_iram -> Calib.aes_kernel_j_per_byte
  | Hw_accelerated `Downscaled -> Calib.aes_hw_j_per_byte
  | Hw_accelerated `Awake -> Calib.aes_hw_j_per_byte /. 4.0

(** A charge resolved once for one machine and variant: the platform's
    throughput, the energy rate, the clock and the "aes" energy meter.
    Resolving it creates the "aes" category (at 0 J) if it has none
    yet, so resolve it when a charge is about to be made. *)
type rate = {
  variant : variant;
  clock : Clock.t;
  mb_s : float;
  j_per_byte : float;
  aes : Energy.meter;
}

let rate m variant =
  let mb_s = throughput_mb_s ~platform:(platform_of_machine m) variant in
  {
    variant;
    clock = Machine.clock m;
    mb_s;
    j_per_byte = j_per_byte variant;
    aes = Energy.meter (Machine.energy m) ~category:"aes";
  }

(* The clock and the meter are updated in place and [bytes_to_mb] is
   spelled out, so an untraced charge makes no call and allocates
   nothing; the float operations, and their order on each accumulator,
   are those of [Units.bytes_to_mb], [Clock.advance] and
   [Energy.charge]. *)
let charge_at r ~bytes =
  let clock = r.clock in
  let start_ns = clock.Clock.now_ns in
  let seconds = float_of_int bytes /. float_of_int Sentry_util.Units.mib /. r.mb_s in
  clock.Clock.now_ns <- clock.Clock.now_ns +. (seconds *. Sentry_util.Units.s);
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.span ~cat:Sentry_obs.Event.Crypto ~subsystem:"crypto.perf" ~start_ns
      ~end_ns:clock.Clock.now_ns
      ~args:
        [
          ("variant", Sentry_obs.Event.Str (variant_name r.variant));
          ("bytes", Sentry_obs.Event.Int bytes);
        ]
      "aes-charge";
  let j = float_of_int bytes *. r.j_per_byte and m = r.aes in
  m.Energy.totals.Energy.j <- m.Energy.totals.Energy.j +. j;
  m.Energy.own.Energy.j <- m.Energy.own.Energy.j +. j

(** [charge m variant ~bytes] advances the simulated clock and energy
    meter as if [bytes] had been transformed by [variant]. *)
let charge m variant ~bytes = charge_at (rate m variant) ~bytes
