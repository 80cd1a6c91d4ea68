(** Background workloads for Figs 6-8 — alpine, vlock, xmms2 — as
    page-access traces over calibrated working sets, interleaved with
    syscalls and access-flag aging sweeps.  The reported metric is
    time spent in the kernel, as the paper plots. *)

type locality = Uniform | Zipf of float | Streaming of int

type profile = {
  bg_name : string;
  working_set_kb : int;
  accesses : int;
  locality : locality;
  syscall_every : int;
  syscall_ns : float;
  aging_every : int;
}

val alpine : profile
val vlock : profile
val xmms2 : profile

val all : profile list

type result = {
  kernel_time_ns : float;
  faults : int;
  page_ins : int;
  page_outs : int;
}

(** Replay the trace against [proc] (whose main region must cover the
    working set).  @raise Invalid_argument if it does not. *)
val run : Sentry_core.System.t -> Sentry_kernel.Process.t -> profile -> seed:int -> result
