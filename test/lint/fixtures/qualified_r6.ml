(* Names [unused], but [Other_r6]'s: a use of [Other_r6.unused] and
   never of [Bad_r6.unused]. *)

let answer = Other_r6.unused 1
