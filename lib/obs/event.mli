(** Structured trace events: simulated timestamp + category +
    subsystem + name + typed arguments. *)

type category =
  | Cache
  | Bus
  | Dma
  | Irq
  | Sched
  | Pagefault
  | Crypto
  | Zerod
  | Lock
  | Taint
  | Mem
  | Fault  (** injected faults: power loss, resets, DMA errors, bit flips *)
  | Recovery  (** crash-recovery passes over interrupted lock/unlock walks *)

val categories : category list
val category_name : category -> string

(** Stable small index, used for per-category counters. *)
val category_index : category -> int

val num_categories : int

(** Subsystem ids the instrumented stack emits under (documentation
    for [trace --list-categories]; emitters may add new ones). *)
val known_subsystems : string list

type arg = Int of int | Float of float | Str of string | Bool of bool

type phase =
  | Instant  (** a point event *)
  | Complete of float  (** a span; payload is the duration in simulated ns *)
  | Counter  (** a sampled counter value (args carry the series) *)

type t = {
  ts_ns : float;
  cat : category;
  subsystem : string;
  name : string;
  phase : phase;
  span : int;  (** span id for [Complete] events; 0 = not a tracked span *)
  parent : int;  (** id of the span open at emission; 0 = root *)
  args : (string * arg) list;
}

val pp : Format.formatter -> t -> unit
