(** The paper's §10 architecture suggestion, implemented: "modern CPUs
    could offer a small amount of memory on the SoC together with a
    pin-on-SoC abstraction ... inaccessible to DMA controllers ...
    low-level firmware should always erase it upon device boot up,
    and should not be modifiable."

    Compared to the two mechanisms Sentry retrofits:
    - unlike iRAM, DMA inaccessibility is a {e hardware} property —
      no TrustZone programming to get right;
    - unlike locked cache ways, no warming protocol, no flush-mask
      kernel surgery, and no capacity stolen from the L2;
    - the zeroing lives in immutable boot ROM, so the
      replace-the-firmware attack vector of §4.3 is closed by
      construction.

    [Machine] wires this in only on the hypothetical future platform
    ([Machine.future]); the [Exp_pinned] experiment measures how much
    of Sentry's machinery it deletes. *)

open Sentry_util

type t = {
  region : Memmap.region;
  data : Bytes.t;
  clock : Clock.t;
  energy : Energy.t;
  mutable shadow : Bytes.t option; (* taint labels, one per data byte *)
}

let create ~clock ~energy ~size =
  {
    region = Memmap.region ~base:Memmap.pinned_base ~size;
    data = Bytes.make size '\000';
    clock;
    energy;
    shadow = None;
  }

let enable_taint t =
  if t.shadow = None then t.shadow <- Some (Taint.create_shadow (Bytes.length t.data))

let taint_range t addr len =
  match t.shadow with
  | None -> Taint.Public
  | Some s -> Taint.max_range s (Memmap.offset t.region addr) len

let region t = t.region
let size t = t.region.Memmap.size
let contains t addr = Memmap.contains t.region addr

let check t addr len =
  if not (contains t addr && (len = 0 || contains t (addr + len - 1))) then
    invalid_arg (Printf.sprintf "Pinned_mem: access out of range 0x%x+%d" addr len)

let charge t len =
  let lines = (len + 31) / 32 in
  Clock.advance t.clock (float_of_int lines *. Calib.iram_line_ns);
  Energy.charge t.energy ~category:"pinned" (float_of_int len *. Calib.onsoc_byte_j)

(** Read straight into [buf] at [off], no allocation. *)
let read_into t addr buf ~off ~len =
  check t addr len;
  charge t len;
  Bytes.blit t.data (Memmap.offset t.region addr) buf off len

(** Write the [len]-byte view of [buf] at [off]. *)
let write_from t ?(level = Taint.Public) addr buf ~off ~len =
  check t addr len;
  charge t len;
  Bytes.blit buf off t.data (Memmap.offset t.region addr) len;
  match t.shadow with
  | Some s -> Taint.fill s (Memmap.offset t.region addr) len level
  | None -> ()

(** Immutable boot-ROM behaviour: erased on {e every} boot, warm or
    cold — there is no firmware to replace or skip. *)
let boot_rom_clear t =
  Bytes_util.zero t.data;
  match t.shadow with
  | Some s -> Taint.fill s 0 (Bytes.length s) Taint.Public
  | None -> ()

(** Attack-side view for tests: what an attacker who somehow probed
    the array would see (requires decapping the SoC — out of the
    threat model). *)
let raw t = t.data
