(** Canned, deterministic workloads for trace capture: same seed, same
    event stream.  Both scenarios exercise lock transitions, bus
    traffic, DMA (incl. a TrustZone denial), page faults and crypto
    operations. *)

type name =
  | Lock_cycle
      (** boot → DMA round-trip → encrypt-on-lock → background reads
          (where the platform pages through locked cache) → wrong PIN →
          unlock → lazy-decrypt faults → context switches *)
  | Dm_crypt_io
      (** a dm-crypt volume under a 4-page buffer cache: 8 page writes,
          8 re-reads (evictions), sync, DMA round-trip *)

val all : name list
val name_to_string : name -> string
val of_string : string -> name option
val describe : name -> string

type result = { system : System.t; sentry : Sentry.t }

(** [run ?seed name platform] boots a fresh system (PRNG fixed by
    [seed], default [default_seed]) and drives the scenario, installing
    a recorder first if the caller has not. *)
val run : ?seed:int -> name -> Config.platform -> result
