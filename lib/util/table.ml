(** Aligned ASCII tables for the benchmark harness.

    Each experiment in [Sentry_experiments] renders its results as a
    [t]; [bench/main.exe] prints them so the output can be compared
    side-by-side with the paper's tables and figures. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~title ~header ?(notes = []) rows = { title; header; rows; notes }

let widths t =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length t.header) t.rows
  in
  let w = Array.make ncols 0 in
  let feed row = List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) row in
  feed t.header;
  List.iter feed t.rows;
  w

let render_row w row =
  let buf = Buffer.create 80 in
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf c;
      Buffer.add_string buf (String.make (w.(i) - String.length c) ' '))
    row;
  Buffer.contents buf

let to_string t =
  let w = widths t in
  let buf = Buffer.create 512 in
  let total = Array.fold_left ( + ) 0 w + (2 * max 0 (Array.length w - 1)) in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (max total (String.length t.title)) '=');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row w t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render_row w r);
      Buffer.add_char buf '\n')
    t.rows;
  List.iter
    (fun n ->
      Buffer.add_string buf "  note: ";
      Buffer.add_string buf n;
      Buffer.add_char buf '\n')
    t.notes;
  Buffer.contents buf

let print t =
  print_string (to_string t);
  print_newline ()

(* RFC-4180-ish quoting: wrap fields containing separators/quotes. *)
let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  else f

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" t.title);
  let row cells = Buffer.add_string buf (String.concat "," (List.map csv_field cells) ^ "\n") in
  row t.header;
  List.iter row t.rows;
  Buffer.contents buf
