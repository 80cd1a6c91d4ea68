(** Physical frame allocator over a DRAM range.

    Freed frames are not immediately reusable as "clean" memory: they
    go to a dirty list until the zeroing kernel thread ([Zerod]) wipes
    them.  That gap — freed pages of a sensitive application lingering
    with their contents in DRAM — is a real leak Sentry closes by
    waiting for the zeroing thread before locking the screen (§7,
    Securing Freed Pages). *)

open Sentry_soc

type t = {
  machine : Machine.t;
  mutable free : int list; (* clean frames, page-aligned addresses *)
  mutable dirty : int list; (* freed, not yet zeroed *)
  mutable allocated : int;
  total : int;
}

(** [create machine ~region] manages the page-aligned frames of
    [region] (which must lie in DRAM). *)
let create machine ~region =
  let first = Page.align_up region.Memmap.base in
  let last = Page.align_down (Memmap.limit region) in
  let frames = ref [] in
  let addr = ref (last - Page.size) in
  while !addr >= first do
    frames := !addr :: !frames;
    addr := !addr - Page.size
  done;
  {
    machine;
    free = !frames;
    dirty = [];
    allocated = 0;
    total = List.length !frames;
  }

let total_frames t = t.total
let free_frames t = List.length t.free
let dirty_frames t = List.length t.dirty
let allocated_frames t = t.allocated

exception Out_of_memory

(** [alloc t] returns a clean page-aligned frame address.  Falls back
    to zeroing a dirty frame on demand (as Linux's allocator does when
    the free list runs dry). *)
let alloc t =
  match t.free with
  | f :: rest ->
      t.free <- rest;
      t.allocated <- t.allocated + 1;
      f
  | [] -> (
      match t.dirty with
      | f :: rest ->
          t.dirty <- rest;
          Machine.write_uncached t.machine f (Bytes.make Page.size '\000');
          t.allocated <- t.allocated + 1;
          f
      | [] -> raise Out_of_memory)

(** [free t frame] releases a frame.  Its contents stay in DRAM until
    the zeroing thread gets to it. *)
let free t frame =
  assert (Page.is_aligned frame);
  t.allocated <- t.allocated - 1;
  t.dirty <- frame :: t.dirty

(** Frames freed but not yet scrubbed, without claiming them — the
    analysis engine inspects their taint at lock time. *)
let pending_dirty t = t.dirty

(** [take_dirty t] hands the dirty list to the zeroing thread. *)
let take_dirty t =
  let d = t.dirty in
  t.dirty <- [];
  d

(** [give_clean t frames] returns zeroed frames to the free list. *)
let give_clean t frames = t.free <- frames @ t.free
