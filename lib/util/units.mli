(** Size, time (ns) and energy (J) units with pretty-printers. *)

val kib : int
val mib : int
val gib : int

val ns : float
val us : float
val ms : float
val s : float

val pp_bytes : Format.formatter -> int -> unit
val pp_time : Format.formatter -> float -> unit
val pp_energy : Format.formatter -> float -> unit

val bytes_to_mb : int -> float
val throughput_mb_s : bytes:int -> time_ns:float -> float

(** Render any pretty-printer to a string. *)
val to_string : (Format.formatter -> 'a -> unit) -> 'a -> string
