(** Sentry configuration: platform, on-SoC storage choice, locked-way
    budget and PIN policy. *)

type platform = [ `Tegra3 | `Nexus4 | `Future ]

type onsoc_storage =
  | Use_iram  (** keys + AES context in on-SoC SRAM (both platforms) *)
  | Use_locked_l2  (** keys + AES context in way-locked L2 (Tegra 3 only) *)
  | Use_pinned
      (** keys + AES context in the §10 pin-on-SoC memory (the
          [`Future] platform only) *)

type t = {
  platform : platform;
  storage : onsoc_storage;
  max_locked_ways : int;  (** cache-way budget Sentry may lock *)
  background_budget_bytes : int;
      (** total locked-cache footprint for background paging (the
          "256 KB" / "512 KB" of Figs 6-8), including Sentry's own
          static on-SoC allocations *)
  pin : string;
  max_pin_attempts : int;  (** wrong PINs before deep-lock *)
  track_taint : bool;
      (** allocate shadow memory and tag secret flows so the analysis
          engine can verify invariants (off by default: zero cost) *)
  trace : bool;
      (** start the global observability recorder at install and point
          its time source at the machine clock (off by default: hot
          paths pay one ref test and record nothing) *)
  journal : bool;
      (** allocate a small iRAM journal and record lock/unlock walk
          progress through it, enabling [Sentry.recover] after a crash
          (off by default: the extra on-SoC writes would perturb the
          bit-identical observable contracts) *)
}

val default : platform -> t

(** Checks platform/storage consistency (e.g. rejects locked-L2
    storage on the Nexus 4). *)
val validate : t -> (t, string) result
