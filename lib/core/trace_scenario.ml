(** Canned, deterministic workloads for trace capture.

    Each scenario boots a fresh system from a fixed PRNG seed and
    drives a representative slice of the stack, so two runs with the
    same seed produce identical event streams — the property the trace
    tests pin down, and what makes exported traces diffable across
    code changes.

    The scenarios deliberately cross every instrumented layer:
    lock-state transitions, bus traffic, DMA transfers (including a
    TrustZone denial), page faults and crypto operations all appear in
    the resulting trace on every platform. *)

open Sentry_soc
open Sentry_kernel

type name = Lock_cycle | Dm_crypt_io

let all = [ Lock_cycle; Dm_crypt_io ]

let name_to_string = function Lock_cycle -> "lock-cycle" | Dm_crypt_io -> "dm-crypt-io"

let of_string s = List.find_opt (fun n -> String.equal (name_to_string n) s) all

let describe = function
  | Lock_cycle ->
      "boot, DMA round-trip, encrypt-on-lock, background reads, wrong PIN, \
       unlock, lazy decrypt faults"
  | Dm_crypt_io -> "dm-crypt volume under a small buffer cache: writes, re-reads, evictions"

type result = { system : System.t; sentry : Sentry.t }

let default_seed = 0x5e17

(* A device write + read of one allocated frame, plus a transfer the
   TrustZone deny list rejects: guarantees Dma events (and a denial)
   in every trace. *)
let dma_roundtrip system =
  let machine = System.machine system in
  let dma = Machine.dma machine in
  let frame = Frame_alloc.alloc system.System.frames in
  let payload = Bytes.init 256 (fun i -> Char.chr (i land 0xff)) in
  (match Dma.write dma ~addr:frame payload with Ok () -> () | Error _ -> ());
  (match Dma.read dma ~addr:frame ~len:256 with Ok _ -> () | Error _ -> ());
  (* the on-SoC key storage is DMA-protected: this one is denied *)
  (match Dma.read dma ~addr:(Machine.iram_region machine).Memmap.base ~len:64 with
  | Ok _ | Error _ -> ());
  Frame_alloc.free system.System.frames frame

(* Ensure a recorder, timestamp its clockless emitters (dm-crypt, the
   crypto registry, the lock state machine) off the machine clock, and
   open the stream with an "install" event, then install Sentry. *)
let install_traced system platform =
  let open Sentry_obs in
  let machine = System.machine system in
  let config = Config.default platform in
  if not (Trace.on ()) then Trace.install (Trace.Recorder.create ());
  Trace.set_time_source (fun () -> Clock.now (Machine.clock machine));
  Trace.emit ~cat:Event.Lock ~subsystem:"core.sentry" "install"
    ~args:
      [
        ("platform", Event.Str (Machine.config machine).Machine.name);
        ("track_taint", Event.Bool config.Config.track_taint);
      ];
  Sentry.install system config

let lock_cycle ~seed platform =
  let system = System.boot ~seed ~pid_base:1 platform in
  let machine = System.machine system in
  let sentry = install_traced system platform in
  let app = System.spawn system ~name:"mail" ~bytes:(128 * Sentry_util.Units.kib) in
  let region = List.hd (Address_space.regions app.Process.aspace) in
  System.fill_region system app region (Bytes.of_string "TRACE-ME-SECRET!");
  (* settle dirty lines so the lock path starts from a clean cache *)
  Pl310.flush_masked (Machine.l2 machine);
  Sentry.mark_sensitive sentry app;
  let background = Sentry.background_engine sentry <> None in
  if background then Sentry.enable_background sentry app;
  dma_roundtrip system;
  ignore (Sentry.lock sentry);
  if background then
    (* touch pages while locked: young-bit faults page plaintext
       through the locked-cache pool (Fig 1) *)
    for i = 0 to 7 do
      ignore
        (Vm.read system.System.vm app
           ~vaddr:(region.Address_space.vstart + (i * Page.size))
           ~len:16)
    done;
  (match Sentry.unlock sentry ~pin:"0000" with Ok _ | Error _ -> ());
  (match Sentry.unlock sentry ~pin:(Sentry.config sentry).Config.pin with
  | Ok _ | Error _ -> ());
  (* post-unlock touches fault into the lazy decryptor *)
  for i = 0 to 3 do
    ignore
      (Vm.read system.System.vm app
         ~vaddr:(region.Address_space.vstart + (i * Page.size))
         ~len:16)
  done;
  Sched.tick system.System.sched;
  Sched.tick system.System.sched;
  { system; sentry }

let dm_crypt_io ~seed platform =
  let system = System.boot ~seed ~pid_base:1 platform in
  let machine = System.machine system in
  let sentry = install_traced system platform in
  let dev =
    Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:(256 * Sentry_util.Units.kib)
  in
  let key = Bytes.init 16 (fun i -> Char.chr (i * 7 land 0xff)) in
  let dm = Dm_crypt.create ~api:system.System.crypto_api ~key (Block_dev.target dev) in
  let bc = Buffer_cache.create machine ~capacity_pages:4 (Dm_crypt.target dm) in
  let cached = Buffer_cache.target bc in
  let blob = Bytes.make Page.size 'S' in
  for i = 0 to 7 do
    Blockio.write cached ~off:(i * Page.size) blob
  done;
  for i = 0 to 7 do
    ignore (Blockio.read cached ~off:(i * Page.size) ~len:Page.size)
  done;
  Buffer_cache.drop bc;
  dma_roundtrip system;
  { system; sentry }

(** [run ?seed name platform] executes the scenario; [install_traced]
    starts a recorder if the caller has not already. *)
let run ?(seed = default_seed) name platform =
  match name with
  | Lock_cycle -> lock_cycle ~seed platform
  | Dm_crypt_io -> dm_crypt_io ~seed platform
