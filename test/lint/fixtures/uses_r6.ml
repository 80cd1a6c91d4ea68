(* The one outside caller of [Bad_r6.used]. *)

let answer = Bad_r6.used 41
