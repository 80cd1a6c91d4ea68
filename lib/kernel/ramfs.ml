(** A minimal extent-based file system over a [Blockio] target.

    Just enough structure for the filebench engine: named files with
    contiguous extents, created once and then read/written at random
    or sequential offsets.  Files can be opened through the cached
    target or (direct I/O) straight through dm-crypt. *)

type file = { fname : string; extent : int (* byte offset on target *); fsize : int }

type t = {
  target : Blockio.t;
  files : (string, file) Hashtbl.t;
  mutable next_free : int;
}

let create target = { target; files = Hashtbl.create 64; next_free = 0 }

exception No_space

(** [create_file t ~name ~size] allocates a contiguous extent. *)
let create_file t ~name ~size =
  if Hashtbl.mem t.files name then invalid_arg ("Ramfs.create_file: exists: " ^ name);
  let extent = t.next_free in
  if extent + size > t.target.Blockio.size then raise No_space;
  t.next_free <- extent + ((size + Page.size - 1) / Page.size * Page.size);
  let f = { fname = name; extent; fsize = size } in
  Hashtbl.replace t.files name f;
  f

let lookup t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None -> raise Not_found

let file_size f = f.fsize

let check_io f off len =
  if off < 0 || len < 0 || off + len > f.fsize then
    invalid_arg (Printf.sprintf "Ramfs: I/O beyond EOF on %s" f.fname)

let read t f ~off ~len =
  check_io f off len;
  Blockio.read t.target ~off:(f.extent + off) ~len

let write t f ~off b =
  check_io f off (Bytes.length b);
  Blockio.write t.target ~off:(f.extent + off) b

let files t = Hashtbl.fold (fun _ f acc -> f :: acc) t.files []
