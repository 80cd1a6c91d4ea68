(** Canned fault-injection scenarios: drive the lock pipeline into an
    injected crash, recover, and report the attack verdict.

    Each named plan arms the {!Sentry_faults.Injector} over a small
    Fig-2-style workload (a sensitive app with a normal region and a
    DMA region, journaled lock pipeline, taint tracking on), runs the
    lock, and — when the fault interrupts it — reboots the machine the
    way the fault implies (power loss → 2 s reset; watchdog reset →
    warm reboot), runs [Sentry.recover], and then asks the questions
    that matter: does a cold-boot image still yield the secret, and do
    the lock state machine, PTE bits and scheduler parking agree
    ([Checkers.Locked_state_consistent])?  The `sentry_cli faults`
    subcommand and the CI smoke step are thin wrappers over [run]. *)

open Sentry_util
open Sentry_soc
open Sentry_core
open Sentry_kernel
module Fault = Sentry_faults.Fault
module Plan = Sentry_faults.Plan
module Injector = Sentry_faults.Injector

(** The canned plans, by name (what `sentry_cli faults --plan` takes). *)
let plans =
  [
    ( "power-loss-mid-lock",
      Plan.make ~name:"power-loss-mid-lock"
        [
          Plan.trigger ~point:Injector.Points.page_encrypted ~kind:Fault.Power_loss
            ~at:(Plan.Nth 3);
        ] );
    ( "power-loss-first-page",
      Plan.make ~name:"power-loss-first-page"
        [
          Plan.trigger ~point:Injector.Points.page_encrypted ~kind:Fault.Power_loss
            ~at:(Plan.Nth 1);
        ] );
    ( "reset-mid-page",
      (* dies inside [Page_crypt.encrypt_frame], after the frame was
         read but before the ciphertext write-back: the page is still
         cleartext and its PTE still says so *)
      Plan.make ~name:"reset-mid-page"
        [
          Plan.trigger ~point:Injector.Points.frame_transform ~kind:Fault.Reset ~at:(Plan.Nth 2);
        ] );
    ( "reset-mid-dmcrypt",
      Plan.make ~name:"reset-mid-dmcrypt"
        [
          Plan.trigger ~point:Injector.Points.dm_crypt_sector ~kind:Fault.Reset ~at:(Plan.Nth 1);
        ] );
    ( "dma-error",
      Plan.make ~name:"dma-error"
        [ Plan.trigger ~point:Injector.Points.dma_read ~kind:Fault.Dma_error ~at:(Plan.Every 1) ]
    );
    ( "bit-flip",
      Plan.make ~name:"bit-flip"
        [
          Plan.trigger ~point:Injector.Points.machine_write ~kind:(Fault.Bit_flip 3)
            ~at:(Plan.Every 64);
        ] );
  ]

let plan_names = List.map fst plans
let find_plan name = List.assoc_opt name plans

type outcome = {
  plan : Plan.t;
  platform : Config.platform;
  fired : Injector.record list;  (** every fault that fired, oldest first *)
  crashed : bool;  (** the lock walk was interrupted *)
  recovery : Sentry.recovery_stats option;
  locked : bool;  (** device ended up Locked *)
  secret_recovered : bool;  (** cold boot after recovery still finds the secret *)
  inconsistencies : int;  (** [Locked_state_consistent.audit] findings *)
  violations : Checker.violation list;  (** full engine verdict *)
}

(** Did the pipeline hold?  Interrupted or not, the run must end
    Locked, self-consistent, with nothing recoverable. *)
let survived o =
  o.locked && (not o.secret_recovered) && o.inconsistencies = 0 && o.violations = []

let secret = Bytes.of_string "FAULT-SCENARIO-SECRET-pay-no-ransom-"

(** The small Fig-2-style workload: one sensitive app with an 8-page
    main region and a 4-page DMA region, both filled with the search
    pattern. *)
let spawn_workload system sentry =
  let app = System.spawn system ~name:"mail" ~bytes:(8 * Page.size) in
  ignore
    (Address_space.map_region app.Process.aspace ~name:"dma" ~kind:Address_space.Dma
       ~bytes:(4 * Page.size));
  Sentry.mark_sensitive sentry app;
  List.iter
    (fun region -> System.fill_region system app region secret)
    (Address_space.regions app.Process.aspace);
  app

(** Flip random DRAM bits — what the armed [Bit_flip] triggers invoke.
    Direct array mutation: real rowhammer-style corruption is not a
    charged CPU access. *)
let bit_flip_handler machine =
  let prng = Prng.create ~seed:0xb17f11b in
  fun ~point:_ ~bits ->
    let raw = Dram.raw (Machine.dram machine) in
    for _ = 1 to bits do
      let off = Prng.int prng (Bytes.length raw) in
      let bit = Prng.int prng 8 in
      Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor (1 lsl bit)))
    done

(** How the machine dies when a given fault interrupts execution. *)
let reboot_of_fault = function
  | Fault.Power_loss -> Machine.Hard_reset 2.0
  | Fault.Reset -> Machine.Warm
  | Fault.Dma_error | Fault.Bit_flip _ -> assert false (* non-interrupting *)

(** [run ?platform ?variant ?backend plan] — execute the scenario
    under [plan].  [variant] picks the cold-boot attack mounted after
    recovery (default: the 2-second reset, the strongest in Table 2);
    [backend] the protection backend the interrupted walk runs under
    (default [Batched] — note [No_access] concedes the cold boot by
    design, so [survived] is expected to be [false] there). *)
let run ?(platform = `Nexus4) ?(variant = Sentry_attacks.Cold_boot.Two_second_reset)
    ?(backend = Sentry.Batched) plan =
  let system = System.boot ~pid_base:1 platform in
  let machine = System.machine system in
  let config = { (Config.default platform) with track_taint = true; journal = true } in
  let sentry = Sentry.install system config in
  Sentry.set_backend sentry backend;
  let engine = Engine.attach sentry in
  ignore (spawn_workload system sentry);
  (* an explicit session handle: firings and occurrence counts are
     read off it after deactivation, not off the global compat API *)
  let session = Injector.create plan in
  Injector.set_bit_flip_handler_of session (bit_flip_handler machine);
  Injector.activate session;
  let crash =
    match Sentry.lock sentry with
    | (_ : Encrypt_on_lock.stats) -> None
    | exception Injector.Injected r -> Some r
  in
  Injector.deactivate ();
  let fired = Injector.fired_of session in
  (* the crash: whatever the walk had done is what survives the
     fault-implied reboot *)
  Option.iter (fun r -> Machine.reboot machine (reboot_of_fault r.Injector.kind)) crash;
  let crashed = crash <> None in
  let recovery = if crashed then Sentry.recover sentry else None in
  (* score the live post-recovery system first: the attack reset below
     wipes iRAM, and content-based checks would otherwise chase the
     attacker's view instead of the system's *)
  Engine.check_now engine;
  let violations = Engine.violations engine in
  let inconsistencies = List.length (Checkers.Locked_state_consistent.audit sentry) in
  let locked = Sentry.state sentry = Lock_state.Locked in
  Engine.detach engine;
  (* the attack, against the single post-recovery image *)
  let image = Sentry_attacks.Cold_boot.image machine variant in
  let secret_recovered = Sentry_attacks.Cold_boot.secret_in_image image ~secret in
  { plan; platform; fired; crashed; recovery; locked; secret_recovered; inconsistencies; violations }
