(** Shared runner for the Figs 2-5 application macrobenchmarks.

    Each app runs a full cycle on a Nexus 4 configuration (the paper's
    platform for these figures): launch → lock (Fig 4) → unlock +
    resume (Fig 2) → scripted session (Fig 3), with AES energy metered
    throughout (Fig 5). *)

open Sentry_util
open Sentry_soc
open Sentry_core
open Sentry_workloads

type metrics = {
  profile : App.profile;
  lock_s : float;
  lock_mb : float;
  lock_j : float;
  unlock_s : float;
  unlock_mb : float;
  unlock_j : float;
  script_elapsed_s : float;
  script_overhead_pct : float;
  script_mb : float;
}

let mb_of_bytes b = float_of_int b /. float_of_int Units.mib

let run_app ?(backend = Sentry.Batched) (profile : App.profile) =
  let system = System.boot `Nexus4 ~dram_size:(96 * Units.mib) ~seed:(Hashtbl.hash profile.App.app_name) in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Nexus4) in
  Sentry.set_backend sentry backend;
  let app = App.launch system profile in
  Sentry.mark_sensitive sentry app.App.proc;
  let pc = Sentry.page_crypt sentry in
  (* ----- device lock (Fig 4) ----- *)
  let stats = Sentry.lock sentry in
  let lock_s = stats.Encrypt_on_lock.elapsed_ns /. Units.s in
  let lock_mb = mb_of_bytes stats.Encrypt_on_lock.bytes_encrypted in
  let lock_j = stats.Encrypt_on_lock.energy_j in
  (* ----- unlock + resume (Fig 2) ----- *)
  Page_crypt.reset_counters pc;
  let t0 = Machine.now machine in
  let e0 = Energy.category (Machine.energy machine) "aes" in
  (match Sentry.unlock sentry ~pin:"1234" with
  | Ok _ -> ()
  | Error _ -> failwith "Exp_apps: unlock failed");
  App.resume system app;
  let unlock_s = (Machine.now machine -. t0) /. Units.s in
  let _, dec = Page_crypt.counters pc in
  let unlock_mb = mb_of_bytes dec in
  let unlock_j = Energy.category (Machine.energy machine) "aes" -. e0 in
  (* ----- scripted session (Fig 3) ----- *)
  Page_crypt.reset_counters pc;
  let elapsed_ns = App.run_script system app in
  let _, dec = Page_crypt.counters pc in
  let script_elapsed_s = elapsed_ns /. Units.s in
  let nominal = profile.App.script_s in
  {
    profile;
    lock_s;
    lock_mb;
    lock_j;
    unlock_s;
    unlock_mb;
    unlock_j;
    script_elapsed_s;
    script_overhead_pct = 100.0 *. (script_elapsed_s -. nominal) /. nominal;
    script_mb = mb_of_bytes dec;
  }

(** All four apps, one cycle each: the data of Figs 2-5. *)
let all () = List.map (fun p -> run_app p) Apps.all
