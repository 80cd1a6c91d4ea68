(** Virtual memory: translation, user-mode access and young-bit fault
    delivery.  Time spent in the installed handler is attributed to
    the faulting process's kernel time (the Figs 6-8 metric). *)

open Sentry_soc

exception Segfault of { pid : int; vaddr : int }

type fault_handler = Process.t -> vaddr:int -> Page_table.pte -> unit

type t

val create : Machine.t -> t
val set_fault_handler : t -> fault_handler -> unit
val reset_fault_handler : t -> unit

val read : t -> Process.t -> vaddr:int -> len:int -> Bytes.t
val write : t -> Process.t -> vaddr:int -> Bytes.t -> unit

(** Minimal access for trace replay. *)
val touch : t -> Process.t -> vaddr:int -> unit
