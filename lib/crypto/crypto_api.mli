(** A Linux-Crypto-API-like cipher registry: implementations register
    under an algorithm name with a priority; lookups return the
    highest-priority one.  Sentry registers AES_On_SoC above the
    generic cipher so dm-crypt picks it up transparently (§7). *)

type impl = {
  name : string;  (** driver name, e.g. "aes-generic" *)
  algorithm : string;  (** algorithm, e.g. "cbc(aes)" *)
  priority : int;
  set_key : Bytes.t -> unit;
  encrypt : iv:Bytes.t -> Bytes.t -> Bytes.t;
  decrypt : iv:Bytes.t -> Bytes.t -> Bytes.t;
}

type t

val create : unit -> t
val register : t -> impl -> unit

(** Highest-priority implementation of [algorithm].
    @raise Not_found if nothing implements it. *)
val find : t -> algorithm:string -> impl

(** All implementations, highest priority first. *)
val list : t -> impl list
