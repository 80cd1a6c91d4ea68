(** Sentry configuration. *)

type platform = [ `Tegra3 | `Nexus4 | `Future ]

type onsoc_storage = Use_iram | Use_locked_l2 | Use_pinned

type t = {
  platform : platform;
  storage : onsoc_storage; (* where keys + AES_On_SoC context live *)
  max_locked_ways : int; (* cache-way budget Sentry may lock *)
  background_budget_bytes : int; (* locked-cache pool for background paging *)
  pin : string;
  max_pin_attempts : int; (* wrong PINs before deep-lock *)
  track_taint : bool; (* allocate shadow memory + tag secret flows *)
  journal : bool; (* crash-consistency journal for lock/unlock walks *)
}

let default_tegra3 =
  {
    platform = `Tegra3;
    storage = Use_locked_l2;
    max_locked_ways = 4;
    background_budget_bytes = 256 * Sentry_util.Units.kib;
    pin = "1234";
    max_pin_attempts = 5;
    track_taint = false;
    journal = false;
  }

(* The Nexus 4 prototype cannot enable cache locking (locked
   firmware), so Sentry keeps secrets in iRAM only and cannot run
   sensitive apps in the background while locked (§7). *)
let default_nexus4 =
  {
    platform = `Nexus4;
    storage = Use_iram;
    max_locked_ways = 0;
    background_budget_bytes = 0;
    pin = "1234";
    max_pin_attempts = 5;
    track_taint = false;
    journal = false;
  }

(* The §10 future platform: pinned on-SoC memory for keys and the AES
   context; cache locking still provides the background paging pool. *)
let default_future =
  { default_tegra3 with platform = `Future; storage = Use_pinned }

let default = function
  | `Tegra3 -> default_tegra3
  | `Nexus4 -> default_nexus4
  | `Future -> default_future

let validate t =
  match (t.platform, t.storage) with
  | `Nexus4, Use_locked_l2 ->
      Error "nexus4: cache locking unavailable (locked firmware); use iRAM"
  | `Nexus4, _ when t.max_locked_ways > 0 -> Error "nexus4: cannot lock cache ways"
  | (`Tegra3 | `Nexus4), Use_pinned ->
      Error "pinned on-SoC memory only exists on the future platform (S10)"
  | _ when t.background_budget_bytes > t.max_locked_ways * 128 * Sentry_util.Units.kib ->
      Error "background budget exceeds locked-way capacity"
  | _ -> Ok t
