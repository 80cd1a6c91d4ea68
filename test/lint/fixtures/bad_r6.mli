(* R6 fixture: [unused] has no caller outside this module. *)

val used : int -> int
val unused : int -> int

module type S = sig
  val in_module_type : int
end

module M : sig
  val in_nested_sig : int
end
