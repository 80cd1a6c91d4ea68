(** Minimal extent-based file system over a block target — just enough
    for the filebench engine. *)

type file

type t

val create : Blockio.t -> t

exception No_space

(** Allocate a contiguous extent.
    @raise Invalid_argument on duplicate names.
    @raise No_space when the target is full. *)
val create_file : t -> name:string -> size:int -> file

(** @raise Not_found for unknown names. *)
val lookup : t -> string -> file

val file_size : file -> int

(** @raise Invalid_argument beyond EOF (same for [write]). *)
val read : t -> file -> off:int -> len:int -> Bytes.t

val write : t -> file -> off:int -> Bytes.t -> unit

val files : t -> file list
