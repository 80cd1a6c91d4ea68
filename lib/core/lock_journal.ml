(** Crash-consistency journal for lock/unlock walks (iRAM-resident).

    A single 32-byte record in iRAM tracks the progress of the current
    encrypt-on-lock or decrypt-on-unlock pass:

    {v
    offset  size  field
    0       4     magic    "SJRN"
    4       4     version  (u32 LE) = 1
    8       4     pass     (u32 LE) 0 = idle, 1 = lock, 2 = unlock
    12      4     pid      (u32 LE) process being walked
    16      4     pages_done (u32 LE) pages transformed this pass
    20      4     checksum (u32 LE) sum of words 1..4 mod 2^32
    24      8     reserved (zero)
    v}

    The record is written through [Machine.write_from], so journal
    updates are charged on the simulated clock/energy like any other
    kernel store — which is exactly why journaling is opt-in
    ([Config.journal]): with it off, observables stay bit-identical to
    the un-journaled pipeline.

    The journal is corroboration, not the source of truth: recovery is
    keyed off [Lock_state] being mid-transition, and must tolerate the
    record having been wiped by the iRAM firmware clear on power-loss
    reboots ([load] returns [None] and recovery falls back to a full
    sweep). *)

open Sentry_soc

type pass = Lock_pass | Unlock_pass

let pass_code = function Lock_pass -> 1 | Unlock_pass -> 2
let pass_of_code = function 1 -> Some Lock_pass | 2 -> Some Unlock_pass | _ -> None

type entry = { pass : pass; pid : int; pages_done : int }

type t = {
  machine : Machine.t;
  addr : int;
  (* Cached live fields so per-page [record] writes the full record
     without a read-modify-write of iRAM. *)
  mutable cur_pass : int;
  mutable cur_pid : int;
  mutable cur_pages : int;
}

let size_bytes = 32
let magic = 0x4e524a53l (* "SJRN" little-endian *)
let version = 1

let create machine ~addr = { machine; addr; cur_pass = 0; cur_pid = 0; cur_pages = 0 }

let addr t = t.addr

let checksum ~pass ~pid ~pages =
  Int32.logand
    (Int32.add (Int32.of_int (version + pass + pid)) (Int32.of_int pages))
    0xffffffffl

let write t =
  let traced = Sentry_obs.Trace.on () in
  let start_ns = if traced then Clock.now (Machine.clock t.machine) else 0.0 in
  let b = Bytes.make size_bytes '\x00' in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 (Int32.of_int version);
  Bytes.set_int32_le b 8 (Int32.of_int t.cur_pass);
  Bytes.set_int32_le b 12 (Int32.of_int t.cur_pid);
  Bytes.set_int32_le b 16 (Int32.of_int t.cur_pages);
  Bytes.set_int32_le b 20 (checksum ~pass:t.cur_pass ~pid:t.cur_pid ~pages:t.cur_pages);
  Machine.write_from t.machine t.addr b ~off:0 ~len:size_bytes;
  if traced then
    Sentry_obs.Trace.span ~cat:Sentry_obs.Event.Lock ~subsystem:"core.lock_journal" ~start_ns
      ~end_ns:(Clock.now (Machine.clock t.machine))
      ~args:[ ("pages_done", Sentry_obs.Event.Int t.cur_pages) ]
      "journal-write"

let trace t name =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~cat:Sentry_obs.Event.Lock ~subsystem:"core.lock_journal" name
      ~args:
        [
          ("pass", Sentry_obs.Event.Int t.cur_pass);
          ("pid", Sentry_obs.Event.Int t.cur_pid);
          ("pages_done", Sentry_obs.Event.Int t.cur_pages);
        ]

(** Open a pass: the record now says "a walk is in flight, zero pages
    done".  Must be written before the first page transform. *)
let begin_pass t pass ~pid =
  t.cur_pass <- pass_code pass;
  t.cur_pid <- pid;
  t.cur_pages <- 0;
  write t;
  trace t "journal-begin"

(** One more page fully transformed (PTE flags already updated — the
    journal write is last, so a crash between flag and journal only
    under-counts, and recovery's sweep is idempotent). *)
let record t ~pid =
  t.cur_pid <- pid;
  t.cur_pages <- t.cur_pages + 1;
  write t

(** Batched pipeline: one iRAM record write per [coalesce] pages.  A
    crash loses at most [coalesce - 1] pages of corroboration — safe,
    because the journal only ever under-counts ([pages_done] is a
    lower bound) and recovery's sweep is keyed off PTE bits, not the
    count. *)
let coalesce = 4

(** [record_batch t ~pid ~pages] — [pages] more pages transformed,
    folded into a single record write. *)
let record_batch t ~pid ~pages =
  t.cur_pid <- pid;
  t.cur_pages <- t.cur_pages + pages;
  write t

(** Close the pass: back to idle. *)
let commit t =
  trace t "journal-commit";
  t.cur_pass <- 0;
  t.cur_pid <- 0;
  t.cur_pages <- 0;
  write t

(** Read the record back.  [None] when the record is missing or
    corrupt — idle, wiped by the firmware clear, or bit-flipped (the
    checksum catches that); recovery then falls back to the
    journal-less sweep. *)
let load t =
  let b = Machine.read t.machine t.addr size_bytes in
  if Bytes.get_int32_le b 0 <> magic then None
  else if Int32.to_int (Bytes.get_int32_le b 4) <> version then None
  else
    let pass_raw = Int32.to_int (Bytes.get_int32_le b 8) in
    let pid = Int32.to_int (Bytes.get_int32_le b 12) in
    let pages = Int32.to_int (Bytes.get_int32_le b 16) in
    let sum = Bytes.get_int32_le b 20 in
    if sum <> checksum ~pass:pass_raw ~pid ~pages then None
    else
      match pass_of_code pass_raw with
      | None -> None
      | Some pass -> Some { pass; pid; pages_done = pages }
