(** Page cache with LRU replacement over a block target — the layer
    that "masks" dm-crypt's cost in Fig 9.  Direct I/O simply bypasses
    this module. *)

open Sentry_soc

type t

val create : Machine.t -> capacity_pages:int -> Blockio.t -> t

(** Write every dirty page down (sync(2)). *)
val sync : t -> unit

(** Sync then drop everything (cold cache between benchmark runs). *)
val drop : t -> unit

(** (hits, misses). *)
val stats : t -> int * int

(** The cached target view. *)
val target : t -> Blockio.t
