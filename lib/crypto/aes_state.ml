(** Classification and layout of AES's working state (paper §6.1,
    Table 4).

    Every byte the cipher touches is classified:
    - {b Secret}: leaks break confidentiality directly (input block,
      key, round keys).
    - {b Public}: harmless if leaked (round/block counters, CBC
      chaining vector — the chaining vector is ciphertext).
    - {b Access-protected}: contents are public constants, but the
      {e order} in which entries are read is key-dependent, so a bus
      monitor that can see the addresses recovers key material
      (round tables, S-boxes, Rcon).

    The same layout doubles as the concrete memory map of the
    instrumented cipher's context ([Aes_block]): AES_On_SoC must fit
    this whole context in on-SoC storage.  It fits in a single 4 KB
    page, which is why Sentry's minimum on-SoC footprint is two pages
    (§7): one for AES_On_SoC, one for the page being transformed. *)

type sensitivity = Secret | Public | Access_protected

let pp_sensitivity ppf = function
  | Secret -> Fmt.string ppf "Secret"
  | Public -> Fmt.string ppf "Public"
  | Access_protected -> Fmt.string ppf "Access-protected"

type field = { name : string; size : int; sensitivity : sensitivity; offset : int }

(** [layout size] — the context fields, in memory order, for the given
    key size. *)
let layout size =
  let nr = Aes_key.rounds size in
  let fields =
    [
      ("input_block", 16, Secret);
      ("key", Aes_key.key_bytes size, Secret);
      ("round_index", 1, Public);
      ("round_keys", 16 * (nr + 1), Secret);
      ("round_table_te", 1024, Access_protected);
      ("round_table_td", 1024, Access_protected);
      ("sbox", 256, Access_protected);
      ("inv_sbox", 256, Access_protected);
      ("rcon", 40, Access_protected);
      ("block_index", 1, Public);
      ("cbc_ivec", 16, Public);
    ]
  in
  (* Fields are word-aligned, as a C compiler would lay the struct
     out; the cold-boot key-schedule scanner relies on real schedules
     being 4-byte aligned. *)
  let align4 n = (n + 3) land lnot 3 in
  let off = ref 0 in
  List.map
    (fun (name, size, sensitivity) ->
      let offset = align4 !off in
      off := offset + size;
      { name; size; sensitivity; offset })
    fields

let find layout name =
  match List.find_opt (fun f -> f.name = name) layout with
  | Some f -> f
  | None -> invalid_arg ("Aes_state.find: " ^ name)

(** Raw state bytes (the Table 4 sum — no padding). *)
let total_size size = List.fold_left (fun acc f -> acc + f.size) 0 (layout size)

(** Context footprint in memory, padding included. *)
let context_bytes size =
  List.fold_left (fun acc f -> max acc (f.offset + f.size)) 0 (layout size)

(** Total bytes per sensitivity class. *)
let by_sensitivity size =
  let sum s =
    List.fold_left
      (fun acc f -> if f.sensitivity = s then acc + f.size else acc)
      0 (layout size)
  in
  (sum Secret, sum Public, sum Access_protected)
