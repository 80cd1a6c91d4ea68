(** Structured trace events.

    One event = one architectural occurrence the paper's evaluation
    reasons about: a cache way locking or a line leaving the SoC, a
    bus transaction, a DMA transfer, a page fault, a crypto transform.
    Events carry the simulated timestamp, a {e category} (the event
    taxonomy, stable across subsystems) and a {e subsystem} (the
    component that emitted it — the Chrome exporter renders one lane
    per subsystem). *)

type category =
  | Cache (* PL310: fills, write-backs, bypasses, lockdown, flushes *)
  | Bus (* external-bus transactions *)
  | Dma (* DMA engine transfers and denials *)
  | Irq (* interrupt masking windows *)
  | Sched (* context switches and register spills *)
  | Pagefault (* young-bit traps and background page-in/out *)
  | Crypto (* cipher dispatch and transforms *)
  | Zerod (* freed-page zeroing sweeps *)
  | Lock (* screen-lock state transitions *)
  | Taint (* secret-flow checker violations *)
  | Mem (* iRAM/DRAM/buffer-cache events outside the paths above *)
  | Fault (* injected faults: power loss, resets, DMA errors, bit flips *)
  | Recovery (* crash-recovery passes over interrupted lock/unlock walks *)

let categories =
  [ Cache; Bus; Dma; Irq; Sched; Pagefault; Crypto; Zerod; Lock; Taint; Mem; Fault; Recovery ]

let category_name = function
  | Cache -> "cache"
  | Bus -> "bus"
  | Dma -> "dma"
  | Irq -> "irq"
  | Sched -> "sched"
  | Pagefault -> "pagefault"
  | Crypto -> "crypto"
  | Zerod -> "zerod"
  | Lock -> "lock"
  | Taint -> "taint"
  | Mem -> "mem"
  | Fault -> "fault"
  | Recovery -> "recovery"

let category_index = function
  | Cache -> 0
  | Bus -> 1
  | Dma -> 2
  | Irq -> 3
  | Sched -> 4
  | Pagefault -> 5
  | Crypto -> 6
  | Zerod -> 7
  | Lock -> 8
  | Taint -> 9
  | Mem -> 10
  | Fault -> 11
  | Recovery -> 12

let num_categories = List.length categories

(** Subsystems known to emit events, for [trace --list-categories].
    The list is documentation, not an enum: emitters are free to use
    new ids, which simply appear as new lanes. *)
let known_subsystems =
  [
    "soc.l2";
    "soc.bus";
    "soc.dma";
    "soc.cpu";
    "soc.iram";
    "soc.pinned";
    "soc.dram";
    "kernel.vm";
    "kernel.sched";
    "kernel.zerod";
    "kernel.bcache";
    "kernel.dm_crypt";
    "crypto.api";
    "crypto.aes_on_soc";
    "crypto.perf";
    "core.lock_state";
    "core.sentry";
    "core.page_crypt";
    "core.background";
    "core.lock_journal";
    "core.recovery";
    "faults.injector";
    "analysis.engine";
    "workloads.fleet";
  ]

type arg = Int of int | Float of float | Str of string | Bool of bool

type phase =
  | Instant
  | Complete of float (* span: duration in simulated ns *)
  | Counter

type t = {
  ts_ns : float; (* simulated Clock time at emission (span start for Complete) *)
  cat : category;
  subsystem : string;
  name : string;
  phase : phase;
  span : int; (* span id for Complete events (0 = not a tracked span) *)
  parent : int; (* id of the enclosing span open at emission (0 = root) *)
  args : (string * arg) list;
}

let pp_arg ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.string ppf s
  | Bool b -> Fmt.bool ppf b

let pp ppf e =
  Fmt.pf ppf "[%12.1f] %-9s %-18s %s" e.ts_ns (category_name e.cat) e.subsystem e.name;
  (match e.phase with
  | Complete dur -> Fmt.pf ppf " dur=%.1fns" dur
  | Instant | Counter -> ());
  if e.span <> 0 then Fmt.pf ppf " span=%d" e.span;
  if e.parent <> 0 then Fmt.pf ppf " parent=%d" e.parent;
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%a" k pp_arg v) e.args
