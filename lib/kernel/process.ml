(** Process model: an address space plus scheduling state and the
    Sentry sensitivity mark.

    [Locked_out] is the paper's "un-schedulable" state: processes
    whose memory was encrypted at screen-lock are parked on a special
    queue so the scheduler cannot run them against ciphertext (§7).
    Background-capable sensitive processes instead keep running in
    [Runnable] with the encrypted-DRAM pager active. *)

type run_state = Runnable | Sleeping | Locked_out

type t = {
  pid : int;
  name : string;
  aspace : Address_space.t;
  kstack : int; (* kernel stack frame (DRAM) for register spills *)
  mutable sensitive : bool;
  mutable state : run_state;
  mutable kernel_time_ns : float;
  mutable user_time_ns : float;
  mutable faults : int;
}

(* The default pid space is OS-process-global (it mimics a kernel's
   pid space); the [Atomic.t] keeps allocation race-free across
   Domains.  Interleaved cross-domain allocation is still
   nondeterministic, though — and pids feed the per-page ESSIV IVs —
   so deterministic harnesses pass an explicit [?pid] (from a private
   base, via [System.boot ~pid_base]) and never touch this counter. *)
let next_pid = Atomic.make 1

let create ?pid ~name ~aspace ~kstack () =
  let pid = match pid with Some p -> p | None -> Atomic.fetch_and_add next_pid 1 in
  {
    pid;
    name;
    aspace;
    kstack;
    sensitive = false;
    state = Runnable;
    kernel_time_ns = 0.0;
    user_time_ns = 0.0;
    faults = 0;
  }

let mark_sensitive t = t.sensitive <- true

let pp ppf t =
  Fmt.pf ppf "%s(pid=%d%s)" t.name t.pid (if t.sensitive then ", sensitive" else "")
