(** Way-locked L2 cache storage (§4.2, §4.5).

    Pins way-sized DRAM arena regions into L2 ways with the paper's
    four-step protocol and hands out 4 KB pages whose lines never
    reach DRAM.  All lockdown programming runs in the TrustZone secure
    world.  See the implementation for the full protocol notes. *)

open Sentry_soc

type t = {
  machine : Machine.t;
  arena_base : int;
  max_ways : int;
  mutable locked : int list;
  mutable free_pages : int list;
  mutable used_pages : (int, unit) Hashtbl.t;
}

(** Arena bytes needed for [max_ways] ways on this machine. *)
val arena_bytes : machine:Machine.t -> max_ways:int -> int

(** [create machine ~arena_base ~max_ways] — [arena_base] must be
    way-size aligned and [max_ways] must leave at least one way
    unlocked for the rest of the system.
    @raise Invalid_argument on a platform without cache locking. *)
val create : Machine.t -> arena_base:int -> max_ways:int -> t

val locked_ways : t -> int

(** Does [addr] fall inside a currently locked arena region? *)
val contains : t -> int -> bool

(** Re-pin every locked way after a controller reset wiped the
    lockdown registers (crash recovery).  Page bookkeeping is kept,
    but contents come back as 0xFF — callers rewrite what the pages
    held. *)
val relock : t -> unit

(** Erase (0xFF) and unlock every locked way. *)
val unlock_all : t -> unit

exception Exhausted

(** [alloc_page t] — a 4 KB on-SoC page; locks an additional way when
    the pool runs dry and the budget allows.
    @raise Exhausted past the way budget. *)
val alloc_page : t -> int

(** Scrub (0xFF) and return a page to the pool. *)
val free_page : t -> int -> unit

val free_pages : t -> int
val used_pages : t -> int
