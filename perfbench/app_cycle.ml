(** app-cycle: the Figs 2-5 cycle for Contacts, Maps, Twitter and
    MP3, one app per call in turn.  Each call boots a 96 MiB Nexus 4,
    installs Sentry, launches the app, locks, unlocks, resumes and
    runs the app's script.  Lock walks cover 2,560-12,288 pages and
    resume decrypts several MB, so the 4 KiB CBC kernel and the L2
    page-run path do most of the work; boot is a small share. *)

open Sentry_util
open Sentry_soc
open Sentry_core
open Sentry_workloads

let apps = Array.of_list Apps.all

let boot ctx ~seed =
  let system =
    Span.run ctx "core.boot" (fun _ ->
        System.boot `Nexus4 ~dram_size:(96 * Units.mib) ~seed ~pid_base:1)
  in
  (system, Span.run ctx "core.install" (fun _ -> Sentry.install system (Config.default `Nexus4)))

let launch ctx system p =
  Span.run ctx "workloads.launch"
    ~items:(fun (a : App.t) -> a.main_region.npages + a.dma_region.npages)
    (fun _ -> App.launch system p)

let cycle ~seed ctx i =
  let p = apps.(i mod Array.length apps) in
  let system, sentry = boot ctx ~seed:(seed + i) in
  let machine = System.machine system in
  let app = launch ctx system p in
  Sentry.mark_sensitive sentry app.proc;
  let lock =
    Span.run ctx "core.lock" ~items:(fun s -> s.Encrypt_on_lock.pages_encrypted) (fun _ ->
        Sentry.lock sentry)
  in
  let t0 = Machine.now machine in
  let pin = (Sentry.config sentry).pin in
  (match Span.run ctx "core.unlock" (fun _ -> Sentry.unlock sentry ~pin) with
  | Ok _ -> ()
  | Error _ -> failwith "app-cycle: unlock failed");
  Span.run ctx "workloads.resume"
    ~items:(fun () ->
      int_of_float (p.resume_mb *. float_of_int Units.mib) / Sentry_kernel.Page.size)
    (fun _ -> App.resume system app);
  let unlock_ns = Machine.now machine -. t0 in
  let script_ns = Span.run ctx "workloads.script" (fun _ -> App.run_script system app) in
  let encrypted, decrypted = Page_crypt.counters (Sentry.page_crypt sentry) in
  {
    Workload.key = p.app_name;
    items = lock.pages_encrypted;
    attempted = 1;
    failed = 0;
    digest =
      Workload.digest_of_string
        (Printf.sprintf "%d,%d,%d,%d|%s" lock.pages_encrypted lock.bytes_encrypted encrypted
           decrypted
           (Workload.floats [ lock.elapsed_ns; lock.energy_j; unlock_ns; script_ns ]));
    sim = [ ("sim_app_unlock_s", unlock_ns /. Units.s) ];
  }

(* Simulated-output digests per app.  The simulated costs do not
   depend on the seed, which only changes keys and fill data. *)
let pinned =
  [
    ("Contacts", "0037926ca4c42dd1eb1e3cff37bc7f67");
    ("Maps", "d3653a107815b9799581721939118f50");
    ("Twitter", "3e6be65fd0151550a3cbca924ac6cecd");
    ("MP3", "e840f703da22821ad27fed23c774901f");
  ]

let make ~seed =
  {
    Workload.item = "pages locked";
    period = Array.length apps;
    bring_up =
      (fun ctx ->
        let system, _ = boot ctx ~seed in
        ignore (launch ctx system Apps.maps));
    call = cycle ~seed Span.Off;
    traced = cycle ~seed;
    two_domains = None;
    pin = (fun key -> List.assoc_opt key pinned);
  }
