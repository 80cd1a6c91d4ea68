(* R6 fixture: a second module exporting a value named like
   [Bad_r6.unused]. *)

val unused : int -> int
