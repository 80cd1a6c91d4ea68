(** The phone's hardware crypto accelerator (Nexus 4 prototype).

    Two behaviours from the paper's Fig 11/12 investigation:
    - throughput depends strongly on transfer size: per-request setup
      (descriptor programming, DMA handoff) dominates 4 KB pages,
      while bulk streams approach the engine's line rate;
    - while the phone is locked/asleep the engine's clock is scaled
      down, costing another ~4x.

    Energy per byte is {e worse} than the CPU at page granularity —
    low throughput means the whole system stays awake longer. *)

open Sentry_soc

type t = {
  machine : Machine.t;
  mutable awake : bool;
  mutable key : Aes.key option;
}

let create machine =
  if not (Machine.config machine).Machine.has_crypto_accel then
    invalid_arg "Hw_accel.create: platform has no crypto accelerator";
  { machine; awake = true; key = None }

let set_awake t awake = t.awake <- awake
let awake t = t.awake

(* Line rate and per-request setup cost, solved so a 4 KB request
   lands on the Calib figure for the awake engine. *)
let line_rate_mb_s = 120.0

let setup_bytes =
  (* 4096 / (4096 + s) * line = awake_4k  =>  s = 4096*(line/awake - 1) *)
  4096.0 *. ((line_rate_mb_s /. Calib.aes_nexus_hw_awake_mb_s) -. 1.0)

(** Modeled throughput for a request of [bytes]. *)
let throughput_mb_s t ~bytes =
  let f = float_of_int bytes in
  let base = line_rate_mb_s *. f /. (f +. setup_bytes) in
  if t.awake then base else base /. 4.0

let set_key t key = t.key <- Some (Aes.expand key)

let transform t ~(dir : [ `Encrypt | `Decrypt ]) ~iv data =
  let k = match t.key with Some k -> k | None -> failwith "Hw_accel: no key" in
  let bytes = Bytes.length data in
  let mb_s = throughput_mb_s t ~bytes in
  let seconds = Sentry_util.Units.bytes_to_mb bytes /. mb_s in
  Clock.advance (Machine.clock t.machine) (seconds *. Sentry_util.Units.s);
  Energy.charge (Machine.energy t.machine) ~category:"aes-hw"
    (float_of_int bytes *. Perf.j_per_byte (Perf.Hw_accelerated (if t.awake then `Awake else `Downscaled)));
  Aes.cbc k ~dir ~iv data

let encrypt t ~iv data = transform t ~dir:`Encrypt ~iv data
let decrypt t ~iv data = transform t ~dir:`Decrypt ~iv data
