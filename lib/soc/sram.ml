(** One bank of on-SoC SRAM: the iRAM of today's parts (256 KB on a
    Tegra 3-class SoC, §4.4) or the §10 "pin-on-SoC" memory of the
    hypothetical future platform.  Both are the same hardware model:
    CPU accesses never cross the external bus, so a bus monitor cannot
    observe them, and a reset that zeroes the array leaves nothing for
    a cold-boot image.

    What differs between the two banks is policy, and stays with its
    owners: [Machine.reboot] decides which reset clears which bank
    (the firmware zeroes iRAM on power-on only, the pinned memory's
    immutable boot ROM on every reset), and [Dma] / [Onsoc] decide who
    may DMA it (iRAM is ordinary memory to a DMA engine unless
    TrustZone denies the window; the pinned bank is not decodable by
    DMA at all).  The one hardware difference is the firmware scratch
    area: the iRAM firmware keeps its runtime state in the low
    [Memmap.iram_firmware_reserved] bytes, and overwriting them
    crashes the platform (§4.5). *)

open Sentry_util

type t = {
  name : string; (* energy category; "soc." ^ name is the trace subsystem *)
  subsystem : string;
  region : Memmap.region;
  data : Bytes.t;
  clock : Clock.t;
  energy : Energy.t;
  mutable meter : Energy.meter option; (* the bank's category, resolved at the first charge *)
  firmware_limit : int; (* writes below this address crash the firmware *)
  mutable firmware_ok : bool;
  mutable shadow : Bytes.t option; (* taint labels, one per data byte *)
}

let create ~clock ~energy ~name ~base ~size ~firmware_reserved =
  {
    name;
    subsystem = "soc." ^ name;
    region = Memmap.region ~base ~size;
    data = Bytes.make size '\000';
    clock;
    energy;
    meter = None;
    firmware_limit = base + firmware_reserved;
    firmware_ok = true;
    shadow = None;
  }

let enable_taint t =
  if t.shadow = None then t.shadow <- Some (Taint.create_shadow (Bytes.length t.data))

let taint_range t addr len =
  match t.shadow with
  | None -> Taint.Public
  | Some s -> Taint.max_range s (Memmap.offset t.region addr) len

let set_taint t addr len level =
  match t.shadow with
  | None -> ()
  | Some s -> Taint.fill s (Memmap.offset t.region addr) len level

let shadow t = t.shadow

let region t = t.region
let contains t addr = Memmap.contains t.region addr

let check t addr len =
  if not (contains t addr && (len = 0 || contains t (addr + len - 1))) then
    invalid_arg (Printf.sprintf "Sram %s: access out of range 0x%x+%d" t.name addr len)

(* In place, as [Clock.advance] and [Energy.charge] would add: an
   access (the key schedule head read under every page's AES charge)
   makes no call and allocates nothing.  The meter is resolved at the
   first charge, so a bank never accessed adds no energy category. *)
let charge t len =
  let lines = (len + 31) / 32 in
  let clock = t.clock in
  clock.Clock.now_ns <- clock.Clock.now_ns +. (float_of_int lines *. Calib.iram_line_ns);
  let m =
    match t.meter with
    | Some m -> m
    | None ->
        let m = Energy.meter t.energy ~category:t.name in
        t.meter <- Some m;
        m
  in
  let j = float_of_int len *. Calib.onsoc_byte_j in
  m.Energy.totals.Energy.j <- m.Energy.totals.Energy.j +. j;
  m.Energy.own.Energy.j <- m.Energy.own.Energy.j +. j

let trace t name ~addr ~len =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~ts:(Clock.now t.clock) ~cat:Sentry_obs.Event.Mem
      ~subsystem:t.subsystem name
      ~args:[ ("addr", Sentry_obs.Event.Int addr); ("bytes", Sentry_obs.Event.Int len) ]

(** Read straight into [buf] at [off], no allocation. *)
let read_into t addr buf ~off ~len =
  check t addr len;
  charge t len;
  trace t "read" ~addr ~len;
  Bytes.blit t.data (Memmap.offset t.region addr) buf off len

(** Write the [len]-byte view of [buf] at [off].  [level] is
    required: an optional argument boxes a [Some] on every write. *)
let write_from t ~level addr buf ~off ~len =
  check t addr len;
  charge t len;
  trace t "write" ~addr ~len;
  Bytes.blit buf off t.data (Memmap.offset t.region addr) len;
  set_taint t addr len level;
  (* Clobbering the firmware scratch area takes the platform down. *)
  if addr < t.firmware_limit then t.firmware_ok <- false

let firmware_ok t = t.firmware_ok

(** Attack-side direct view (what a successful DMA window would read). *)
let raw t = t.data

let snapshot t = Bytes.copy t.data

(** Zero the whole bank, as the reset that owns it does.  SRAM has
    remanence too (and decays more slowly than DRAM, [Cakir et al.]),
    but the zeroing runs before any attacker code, so the post-boot
    observable content is all-zero — exactly the paper's Table 2
    measurement. *)
let clear t =
  trace t "firmware-clear" ~addr:t.region.Memmap.base ~len:(Bytes.length t.data);
  Bytes_util.zero t.data;
  (match t.shadow with
  | Some s -> Taint.fill s 0 (Bytes.length s) Taint.Public
  | None -> ());
  t.firmware_ok <- true
