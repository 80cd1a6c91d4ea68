(** A process's virtual address space: page table plus typed regions.
    Region kinds drive Sentry policy (§7): [Normal] → lazy decrypt,
    [Dma] → eager decrypt at unlock, [Shared g] → encrypted only if
    every sharer of group [g] is sensitive. *)

open Sentry_soc

type kind = Normal | Dma | Shared of string

type region = { name : string; kind : kind; vstart : int; npages : int }

type t

val create : Machine.t -> frames:Frame_alloc.t -> t
val table : t -> Page_table.t
val regions : t -> region list

(** Allocate frames and map a fresh region. *)
val map_region : t -> name:string -> kind:kind -> bytes:int -> region

(** Alias [region]'s PTEs (shared memory) into this space. *)
val share_region : t -> from_space:t -> region -> unit

(** Unmap and free the frames (onto the dirty list). *)
val unmap_region : t -> region -> unit

val region_bytes : region -> int
val total_bytes : t -> int
val find_region : t -> name:string -> region option

(** All (vpn, pte) pairs of a region, in page order. *)
val region_ptes : t -> region -> (int * Page_table.pte) list

(** [f vpn pte] for every pair of [region_ptes], in the same order,
    without building the list; a hole raises when reached. *)
val iter_region_ptes : t -> region -> (int -> Page_table.pte -> unit) -> unit
