(** Foreground application model for Figs 2-5: memory profile (how
    much is resident / DMA / touched at resume / touched by the
    script) plus the scripted session driver. *)

open Sentry_kernel

type profile = {
  app_name : string;
  footprint_mb : float;  (** resident set, encrypted at lock *)
  dma_mb : float;  (** DMA region, eager decrypt at unlock *)
  resume_mb : float;  (** touched by the resume path (lazy) *)
  runtime_mb : float;  (** additionally touched during the script *)
  refault_factor : float;  (** aging refaults per runtime page *)
  script_s : float;  (** scripted interaction duration *)
}

type t = {
  profile : profile;
  proc : Process.t;
  main_region : Address_space.region;
  dma_region : Address_space.region;
}

(** Spawn the process with main + DMA regions, filled with
    recognisable content. *)
val launch : Sentry_core.System.t -> profile -> t

(** Touch the resume set (encrypted pages fault and decrypt lazily). *)
val resume : Sentry_core.System.t -> t -> unit

(** Run the scripted session; returns its simulated duration (ns) —
    overhead is the excess over [profile.script_s]. *)
val run_script : Sentry_core.System.t -> t -> float
