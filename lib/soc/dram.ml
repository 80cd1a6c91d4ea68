(** Off-SoC DRAM with a data-remanence model.

    The backing store is directly inspectable ([snapshot], [raw]) —
    that is the point: cold-boot and DMA attacks read this array, not
    the CPU's view through the cache.

    The store is allocated uninitialised and zero-filled on first
    touch, one fixed 64 KiB chunk at a time: every access path below
    zeroes the chunks its range covers before it reads or writes a
    byte, and the whole-image views ([raw], [snapshot], [power_cycle])
    zero the whole store first.  So no uninitialised host byte ever
    reaches simulated state, and a boot pays only for the chunks the
    run touches, not for the full image. *)

open Sentry_util

(* 64 KiB: a whole number of 4 KiB pages, so a page never straddles
   two chunks. *)
let chunk_shift = 16
let chunk_size = 1 lsl chunk_shift

type t = {
  region : Memmap.region;
  data : Bytes.t; (* only chunks flagged in [zeroed] hold defined bytes *)
  zeroed : bool array; (* one flag per [chunk_size] chunk of [data] *)
  mutable resident : int; (* bytes of [data] zeroed so far *)
  bus : Bus.t;
  prng : Prng.t;
  mutable powered : bool;
  mutable shadow : Bytes.t option; (* taint labels, one per data byte *)
}

let create ~bus ~clock:_ ~prng ~size =
  {
    region = Memmap.region ~base:Memmap.dram_base ~size;
    data = Bytes.create size;
    zeroed = Array.make ((size + chunk_size - 1) lsr chunk_shift) false;
    resident = 0;
    bus;
    prng;
    powered = true;
    shadow = None;
  }

(* Zero every not-yet-zeroed chunk under the store range [off, off + len). *)
let materialise t off len =
  if len > 0 && t.resident < Bytes.length t.data then
    for c = off lsr chunk_shift to (off + len - 1) lsr chunk_shift do
      if not t.zeroed.(c) then begin
        let start = c lsl chunk_shift in
        let n = min chunk_size (Bytes.length t.data - start) in
        Bytes.fill t.data start n '\000';
        t.zeroed.(c) <- true;
        t.resident <- t.resident + n
      end
    done

let materialise_all t = materialise t 0 (Bytes.length t.data)

(** Bytes of the store zeroed so far (the host memory this DRAM has
    made resident). *)
let resident_bytes t = t.resident

(* ------------------------- taint shadow -------------------------- *)

let enable_taint t =
  if t.shadow = None then t.shadow <- Some (Taint.create_shadow (Bytes.length t.data))

let taint_enabled t = t.shadow <> None

(** Taint join over a physical range ([Public] when tracking is off). *)
let taint_range t addr len =
  match t.shadow with
  | None -> Taint.Public
  | Some s -> Taint.max_range s (Memmap.offset t.region addr) len

(** Uniformly relabel a physical range (zeroing thread, boot-time
    clobbers, DMA-written attacker data). *)
let set_taint t addr len level =
  match t.shadow with
  | None -> ()
  | Some s -> Taint.fill s (Memmap.offset t.region addr) len level

(** The raw shadow store, for analysis passes (same layout as [raw]);
    [None] until taint tracking is enabled. *)
let shadow t = t.shadow

let region t = t.region
let size t = t.region.Memmap.size
let contains t addr = Memmap.contains t.region addr

(** A typed power fault, so the fault engine and recovery paths can
    distinguish "the rails are down" from programming errors. *)
exception Powered_off

(* The access check ([Powered_off] / range), then first-touch zeroing
   of the chunks the range covers.  Runs once per L2 line fill and
   write-back, so the common case — a range inside one already zeroed
   chunk — is decided inline. *)
let check t addr len =
  if not (t.powered) then raise Powered_off;
  let off = addr - t.region.Memmap.base and size = Bytes.length t.data in
  let last = off + len - 1 in
  if not (off >= 0 && off < size && (len = 0 || (last >= 0 && last < size))) then
    invalid_arg (Printf.sprintf "Dram: access out of range 0x%x+%d" addr len);
  if len > 0 && not (t.zeroed.(off lsr chunk_shift) && last lsr chunk_shift = off lsr chunk_shift)
  then materialise t off len

(** [backing t addr len] — the access check for a physical range plus
    first-touch zeroing of the chunks under it, returning the whole
    backing store (indexed by offset from the region base).  For paths
    that check once and then touch the store directly: only the bytes
    of ranges passed here are defined. *)
let backing t addr len =
  check t addr len;
  t.data

(** The memory bus this DRAM answers on, for fast paths that inline
    their own transaction accounting. *)
let bus t = t.bus

(** [read_into t ~initiator addr buf ~off ~len] fetches bytes over the
    bus straight into [buf] at [off] — the scatter-gather fast path:
    no intermediate buffer is allocated, and the recorded bus
    transaction carries bit-identical bytes, taint and energy to the
    allocating [read]. *)
let read_into t ~initiator addr buf ~off ~len =
  check t addr len;
  let src_off = Memmap.offset t.region addr in
  Bytes.blit t.data src_off buf off len;
  Bus.record_view t.bus ~initiator ~taint:(taint_range t addr len) Bus.Read addr buf ~off ~len

(** [read t ~initiator addr len] fetches bytes over the bus. *)
let read t ~initiator addr len =
  let b = Bytes.create len in
  read_into t ~initiator addr b ~off:0 ~len;
  b

(** [write_from t ~initiator ?level ?taint addr buf ~off ~len] stores
    the [len]-byte view of [buf] at [off] over the bus; the written
    range's shadow comes from [taint] (per-byte labels) when given,
    else uniformly from [level] (default [Public]).  The allocating
    [write] is implemented on top. *)
let write_from t ~initiator ?(level = Taint.Public) ?taint addr buf ~off ~len =
  check t addr len;
  let dst_off = Memmap.offset t.region addr in
  Bytes.blit buf off t.data dst_off len;
  let txn_taint =
    match t.shadow with
    | None -> Taint.Public
    | Some s ->
        (match taint with
        | Some tb -> Bytes.blit tb 0 s dst_off len
        | None -> Taint.fill s dst_off len level);
        Taint.max_range s dst_off len
  in
  Bus.record_view t.bus ~initiator ~taint:txn_taint Bus.Write addr buf ~off ~len

let write t ~initiator ?level ?taint addr b =
  write_from t ~initiator ?level ?taint addr b ~off:0 ~len:(Bytes.length b)

(** Copy the shadow labels behind a physical range into [dst] at
    [dst_off] (all-[Public] when tracking is off): the allocation-free
    twin of [shadow_of_range] for the L2 line-fill path. *)
let blit_shadow_into t addr len dst dst_off =
  match t.shadow with
  | None -> Taint.fill dst dst_off len Taint.Public
  | Some s -> Bytes.blit s (Memmap.offset t.region addr) dst dst_off len

(** Direct backing-store access for attack tooling and test assertions
    (no bus traffic — this is "desoldering the chip", not a CPU read).
    Zeroes the whole not-yet-touched image first, so it costs a full
    memset of the module: never call it on a hot path. *)
let raw t =
  materialise_all t;
  t.data

let snapshot t = Bytes.copy (raw t)

(** [power_cycle t ~off_s] models removing power for [off_s] seconds.
    Each byte independently survives with the Table 2-calibrated
    probability; decayed bytes fall to the DRAM ground state (0x00 or
    0xFF depending on cell polarity — we model half and half, decided
    per 64-byte row, as real modules ground alternate rows). *)
let power_cycle t ~off_s =
  if t.powered then
    invalid_arg "Dram.power_cycle: still powered (cells decay only without self-refresh)";
  let p = Calib.dram_survival ~power_off_s:off_s in
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~cat:Sentry_obs.Event.Mem ~subsystem:"soc.dram" "power-cycle"
      ~args:[ ("off_s", Sentry_obs.Event.Float off_s); ("survival_p", Sentry_obs.Event.Float p) ];
  if p < 1.0 then begin
    materialise_all t;
    let n = Bytes.length t.data in
    let row_ground row = if row land 1 = 0 then '\x00' else '\xff' in
    for i = 0 to n - 1 do
      if not (Prng.flip t.prng ~p) then begin
        Bytes.unsafe_set t.data i (row_ground (i lsr 6));
        (* a decayed cell holds the ground state, not the secret *)
        match t.shadow with Some s -> Taint.set s i Taint.Public | None -> ()
      end
    done
  end

let set_powered t powered = t.powered <- powered
