(** The assembled platform.

    Two configurations mirror the paper's prototypes:
    - [tegra3]: firmware access available, so L2 cache locking can be
      enabled; iRAM too; no useful crypto accelerator; not optimised
      for energy.
    - [nexus4]: locked firmware — no cache locking, no TrustZone
      access; iRAM available; has a crypto accelerator; retail energy
      characteristics.

    All CPU loads/stores go through [read]/[write]; DRAM addresses are
    cached through the PL310, iRAM addresses are served on-SoC.  The
    [read_uncached]/[write_uncached] pair models device-style or
    explicitly uncached mappings. *)

open Sentry_util

type config = {
  name : string;
  dram_size : int;
  iram_size : int;
  cache_locking_available : bool;
  has_crypto_accel : bool;
  trustzone_available : bool;
  has_pinned_memory : bool; (* the §10 future-architecture feature *)
}

let tegra3 ?(dram_size = 32 * Units.mib) () =
  {
    name = "tegra3";
    dram_size;
    iram_size = Memmap.default_iram_size;
    cache_locking_available = true;
    has_crypto_accel = false;
    trustzone_available = true;
    has_pinned_memory = false;
  }

let nexus4 ?(dram_size = 32 * Units.mib) () =
  {
    name = "nexus4";
    dram_size;
    iram_size = Memmap.default_iram_size;
    cache_locking_available = false;
    has_crypto_accel = true;
    trustzone_available = false;
    has_pinned_memory = false;
  }

(** The hypothetical platform of §10's architecture suggestion: a
    Tegra-class SoC plus a dedicated pin-on-SoC memory. *)
let future ?(dram_size = 32 * Units.mib) () =
  { (tegra3 ~dram_size ()) with name = "future"; has_pinned_memory = true }

type t = {
  conf : config;
  clock : Clock.t;
  energy : Energy.t;
  prng : Prng.t;
  bus : Bus.t;
  dram : Dram.t;
  iram : Iram.t;
  l2 : Pl310.t;
  fuse : Fuse.t;
  tz : Trustzone.t;
  dma : Dma.t;
  cpu : Cpu.t;
  pinned : Pinned_mem.t option;
  byte_scratch : Bytes.t; (* 1-byte buffer backing read_byte/write_byte *)
  mutable boots : int;
  mutable ambient_taint : Taint.level; (* label applied to CPU stores *)
}

let create ?(seed = 0x5e17) conf =
  let clock = Clock.create () in
  let energy = Energy.create () in
  let prng = Prng.create ~seed in
  let bus = Bus.create ~clock ~energy in
  let dram = Dram.create ~bus ~clock ~prng ~size:conf.dram_size in
  let iram = Iram.create ~clock ~energy ~size:conf.iram_size in
  let l2 = Pl310.create ~dram ~clock ~energy () in
  let fuse = Fuse.create ~prng in
  let tz = Trustzone.create ~fuse in
  let dma = Dma.create ~dram ~iram ~tz ~clock ~energy in
  let cpu = Cpu.create ~clock in
  let pinned =
    if conf.has_pinned_memory then
      Some (Pinned_mem.create ~clock ~energy ~size:Memmap.default_pinned_size)
    else None
  in
  {
    conf;
    clock;
    energy;
    prng;
    bus;
    dram;
    iram;
    l2;
    fuse;
    tz;
    dma;
    cpu;
    pinned;
    byte_scratch = Bytes.create 1;
    boots = 1;
    ambient_taint = Taint.Public;
  }

let config t = t.conf
let clock t = t.clock
let energy t = t.energy
let prng t = t.prng
let bus t = t.bus
let dram t = t.dram
let iram t = t.iram
let l2 t = t.l2
let fuse t = t.fuse
let trustzone t = t.tz
let dma t = t.dma
let cpu t = t.cpu
let pinned t = t.pinned
let now t = Clock.now t.clock

let dram_region t = Dram.region t.dram
let iram_region t = Iram.region t.iram

(* --------------------------- taint ------------------------------- *)

(** Allocate every shadow store: DRAM, iRAM, L2 lines, pinned memory.
    Idempotent; zero cost until called (the default). *)
let enable_taint t =
  Pl310.enable_taint t.l2;
  (* Pl310.enable_taint covers DRAM *)
  Iram.enable_taint t.iram;
  Option.iter Pinned_mem.enable_taint t.pinned

let taint_enabled t = Pl310.taint_enabled t.l2

(** [with_taint t level f] — run [f] with every CPU store it performs
    labelled [level].  This is the source-tagging primitive: writers
    that know they are moving key material or ciphertext declare it
    here without changing call-site signatures below them.  Nests:
    the innermost label wins. *)
let with_taint t level f =
  let saved = t.ambient_taint in
  t.ambient_taint <- level;
  Fun.protect ~finally:(fun () -> t.ambient_taint <- saved) f

let ambient_taint t = t.ambient_taint

(* ------------------------- CPU memory ops ------------------------ *)

let in_dram t addr = Dram.contains t.dram addr
let in_iram t addr = Iram.contains t.iram addr

(** Taint join over a physical range, seen through the cache for DRAM
    addresses.  [Public] when tracking is off or the address is
    unmapped. *)
let taint_of t addr len =
  if in_dram t addr then Pl310.taint_range t.l2 addr len
  else if in_iram t addr then Iram.taint_range t.iram addr len
  else
    match t.pinned with
    | Some p when Pinned_mem.contains p addr -> Pinned_mem.taint_range p addr len
    | Some _ | None -> Taint.Public

exception Bus_fault of int

(** Cached CPU read straight into the caller's buffer: identical
    accounting to [read] (which is implemented on top), no
    allocation. *)
let read_into t addr buf ~off ~len =
  if in_dram t addr then Pl310.read_into t.l2 addr buf ~off ~len
  else if in_iram t addr then Iram.read_into t.iram addr buf ~off ~len
  else
    match t.pinned with
    | Some p when Pinned_mem.contains p addr -> Pinned_mem.read_into p addr buf ~off ~len
    | Some _ | None -> raise (Bus_fault addr)

(** Cached CPU read of [len] bytes at physical [addr]. *)
let read t addr len =
  let b = Bytes.create len in
  read_into t addr b ~off:0 ~len;
  b

(** Cached CPU write of the [len]-byte view of [buf] at [off]; bytes
    are labelled with the ambient taint.  [write] is implemented on
    top. *)
let write_from t addr buf ~off ~len =
  (* fault hook: bit flips land in DRAM behind this store; power loss /
     reset here models a crash between arbitrary kernel stores *)
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.machine_write;
  if in_dram t addr then Pl310.write_from t.l2 ~taint:t.ambient_taint addr buf ~off ~len
  else if in_iram t addr then Iram.write_from t.iram ~level:t.ambient_taint addr buf ~off ~len
  else
    match t.pinned with
    | Some p when Pinned_mem.contains p addr ->
        Pinned_mem.write_from p ~level:t.ambient_taint addr buf ~off ~len
    | Some _ | None -> raise (Bus_fault addr)

(** Cached CPU write; bytes are labelled with the ambient taint. *)
let write t addr b = write_from t addr b ~off:0 ~len:(Bytes.length b)

(** Batched-pipeline page-run read: [Pl310.read_run_into] for DRAM
    addresses (bit-identical state evolution to [read_into], tight
    host loop), the generic path elsewhere. *)
let read_run_into t addr buf ~off ~len =
  if in_dram t addr then Pl310.read_run_into t.l2 addr buf ~off ~len
  else read_into t addr buf ~off ~len

(** Page-run write twin of [read_run_into]; same fault hook and taint
    labelling as [write_from]. *)
let write_run_from t addr buf ~off ~len =
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.machine_write;
  if in_dram t addr then Pl310.write_run_from t.l2 ~taint:t.ambient_taint addr buf ~off ~len
  else if in_iram t addr then Iram.write_from t.iram ~level:t.ambient_taint addr buf ~off ~len
  else
    match t.pinned with
    | Some p when Pinned_mem.contains p addr ->
        Pinned_mem.write_from p ~level:t.ambient_taint addr buf ~off ~len
    | Some _ | None -> raise (Bus_fault addr)

(** Uncached CPU access: goes straight to DRAM over the bus (device
    memory attribute / explicitly uncached mapping). *)
let read_uncached t addr len =
  if in_dram t addr then begin
    Clock.advance t.clock (float_of_int ((len + 31) / 32) *. Calib.dram_line_ns);
    Dram.read t.dram ~initiator:`Cpu addr len
  end
  else read t addr len

let write_uncached t addr b =
  if in_dram t addr then begin
    Clock.advance t.clock
      (float_of_int ((Bytes.length b + 31) / 32) *. Calib.dram_line_ns);
    Dram.write t.dram ~initiator:`Cpu ~level:t.ambient_taint addr b
  end
  else write t addr b

(** Bulk raw store with no per-access charging: for operations whose
    cost is modeled wholesale from a calibrated rate (e.g. the zeroing
    thread's non-temporal store stream).  Bypasses cache and bus
    accounting; any stale cache lines over the range are dropped. *)
let write_raw t addr b =
  if in_dram t addr then begin
    let off = addr - (Dram.region t.dram).Memmap.base in
    Bytes.blit b 0 (Dram.backing t.dram addr (Bytes.length b)) off (Bytes.length b);
    Dram.set_taint t.dram addr (Bytes.length b) t.ambient_taint;
    Pl310.invalidate_range t.l2 addr (Bytes.length b)
  end
  else write t addr b

(* Single-byte accessors reuse the machine's one-byte scratch buffer
   instead of allocating per call. *)
let read_byte t addr =
  read_into t addr t.byte_scratch ~off:0 ~len:1;
  Bytes.get t.byte_scratch 0

let write_byte t addr c =
  Bytes.set t.byte_scratch 0 c;
  write_from t addr t.byte_scratch ~off:0 ~len:1

(** Charge pure compute time (no memory traffic). *)
let compute t ~ns = Clock.advance t.clock ns

(* ---------------------------- reboot ----------------------------- *)

type reboot = Warm | Reflash | Hard_reset of float

(** [reboot t kind] models the three cold-boot-relevant resets of the
    Table 2 experiment.

    - [Warm]: OS reboot, no power loss.  iRAM and DRAM cells keep
      their charge, but the booting kernel overwrites its own
      footprint (~3.6% of DRAM).  The boot ROM reinitialises the L2
      controller (invalidating without cleaning — dirty data is lost,
      not leaked).
    - [Reflash]: short power disconnect (tapping RESET, ~0.2 s) to
      enter the flasher.  DRAM decays slightly (97.5% survives);
      firmware zeroes iRAM and resets the L2.
    - [Hard_reset d]: power removed for [d] seconds (pulling the
      module / holding RESET).  DRAM decays per the remanence curve;
      iRAM and L2 are firmware-cleared. *)
let reboot t kind =
  t.boots <- t.boots + 1;
  Cpu.zero_regs t.cpu;
  Cpu.enable_irqs t.cpu;
  (* the pinned memory's boot ROM runs unconditionally on every reset *)
  Option.iter Pinned_mem.boot_rom_clear t.pinned;
  (match kind with
  | Warm ->
      (* Kernel image + early boot allocations clobber low DRAM. *)
      let overwrite =
        int_of_float (Calib.warm_reboot_overwrite_fraction *. float_of_int t.conf.dram_size)
      in
      let base = (Dram.region t.dram).Memmap.base in
      Bytes.fill (Dram.backing t.dram base overwrite) 0 overwrite '\000';
      Dram.set_taint t.dram base overwrite Taint.Public;
      Pl310.reset t.l2
  | Reflash ->
      Dram.set_powered t.dram false;
      Dram.power_cycle t.dram ~off_s:0.2;
      Dram.set_powered t.dram true;
      Iram.firmware_clear t.iram;
      Pl310.reset t.l2
  | Hard_reset off_s ->
      Dram.set_powered t.dram false;
      Dram.power_cycle t.dram ~off_s;
      Dram.set_powered t.dram true;
      Iram.firmware_clear t.iram;
      Pl310.reset t.l2);
  Clock.advance t.clock (2.0 *. Units.s)
