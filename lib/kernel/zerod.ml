(** The freed-page zeroing kernel thread.

    Linux zeroes freed pages eventually, with no deadline; a sensitive
    application's freed pages can therefore linger in DRAM with their
    plaintext intact.  Sentry's lock path waits for this thread to
    drain before declaring the device locked (§7, Securing Freed
    Pages).  The paper measured the cost as negligible: 4.014 GB/s at
    2.8 uJ/MB. *)

open Sentry_soc

type t = {
  machine : Machine.t;
  frames : Frame_alloc.t;
  mutable pages_zeroed : int;
  mutable enabled : bool;
}

let create machine ~frames = { machine; frames; pages_zeroed = 0; enabled = true }

(** Fault-injection knob: a disabled zerod lets [drain] return without
    scrubbing anything — the stock-Linux hazard Sentry's lock barrier
    exists to close. *)
let set_enabled t enabled = t.enabled <- enabled

let zero_page t frame =
  (* The store stream's cost is the calibrated rate below; write_raw
     avoids double-charging per-line bus time on top of it. *)
  Machine.write_raw t.machine frame (Bytes.make Page.size '\000');
  let page_s = float_of_int Page.size /. Calib.zeroing_bytes_per_s in
  Clock.advance (Machine.clock t.machine) (page_s *. Sentry_util.Units.s);
  Energy.charge (Machine.energy t.machine) ~category:"zerod"
    (Sentry_util.Units.bytes_to_mb Page.size *. Calib.zeroing_j_per_mb);
  t.pages_zeroed <- t.pages_zeroed + 1

(** [drain t] zeroes every pending dirty frame; returns how many.
    A no-op returning 0 while disabled. *)
let drain t =
  if not t.enabled then 0
  else begin
    let start_ns = Clock.now (Machine.clock t.machine) in
    let dirty = Frame_alloc.take_dirty t.frames in
    List.iter (zero_page t) dirty;
    Frame_alloc.give_clean t.frames dirty;
    let n = List.length dirty in
    if Sentry_obs.Trace.on () && n > 0 then
      Sentry_obs.Trace.span ~cat:Sentry_obs.Event.Zerod ~subsystem:"kernel.zerod" ~start_ns
        ~end_ns:(Clock.now (Machine.clock t.machine))
        ~args:[ ("pages", Sentry_obs.Event.Int n) ]
        "drain";
    n
  end

let pages_zeroed t = t.pages_zeroed
