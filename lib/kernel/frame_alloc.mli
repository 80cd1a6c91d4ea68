(** Physical frame allocator with a dirty-page list: freed frames keep
    their contents until the zeroing thread scrubs them — the freed-page
    hazard Sentry's lock barrier closes (§7). *)

open Sentry_soc

type t

val create : Machine.t -> region:Memmap.region -> t
val total_frames : t -> int
val free_frames : t -> int
val dirty_frames : t -> int
val allocated_frames : t -> int

exception Out_of_memory

(** A clean page-aligned frame; zeroes a dirty frame on demand when the
    free list is dry.  @raise Out_of_memory when both lists are empty. *)
val alloc : t -> int

(** Release a frame onto the dirty list (contents intact!). *)
val free : t -> int -> unit

(** Frames freed but not yet scrubbed, without claiming them. *)
val pending_dirty : t -> int list

(** Hand the dirty list to the zeroing thread. *)
val take_dirty : t -> int list

(** Return zeroed frames to the free list. *)
val give_clean : t -> int list -> unit
