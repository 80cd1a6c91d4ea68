(* The module's own uses of [unused] do not count as references. *)

let unused x = x - 1
let used x = unused (x + 2)

module type S = sig
  val in_module_type : int
end

module M = struct
  let in_nested_sig = 0
end
