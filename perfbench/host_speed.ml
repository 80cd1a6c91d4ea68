(** A fixed probe of host speed, timed between timed calls.

    On a shared host, speed drifts: on the 2-vCPU VM these numbers
    were taken on, a fixed loop ran up to 2x slower for tens of
    seconds at a time, which moved run medians far more than any
    within-run noise.  Scaling each call's time by [reference_ns] over
    the probes on either side of it cancels most of that drift; the
    README gives raw and scaled spreads of every workload.  The probe
    allocates nothing, calls no code of the program and always runs on
    a freshly compacted heap, so a change to the program does not move
    it. *)

let table = Array.init 65536 (fun i -> (i * 2654435761) land 0xffff)
let buf = Bytes.create (4 lsl 20)
let page = 4096

(** The probe's time on the reference host (the VM above, in a quiet
    period), so scaled times read as that host's. *)
let reference_ns = 7.5e6

(** Compact the heap, then one probe: dependent lookups in a 512 KiB
    table, then page copies across 4 MiB.  Returns host ns of the
    probe alone. *)
let probe () =
  Gc.compact ();
  let t0 = Span.now_ns () in
  let x = ref 1 in
  for i = 0 to 1_000_000 do
    x := table.((!x lxor i) land 0xffff) + i
  done;
  let pages = Bytes.length buf / page in
  for k = 0 to 1 do
    for p = 0 to pages - 2 do
      Bytes.blit buf (p * page) buf ((((p * 7) + k) mod (pages - 1)) * page) page
    done
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (Span.now_ns () - t0)

(** Host ns scaled to the reference host. *)
let scaled ~ns ~probe_ns = float_of_int ns *. reference_ns /. probe_ns
