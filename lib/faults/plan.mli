(** Deterministic fault plans: named trigger sets interpreted by the
    [Injector].  Pure data; scripted or PRNG-seeded. *)

type occurrence =
  | Nth of int  (** fire on exactly the k-th arrival at the point (1-based) *)
  | Every of int  (** fire on every k-th arrival *)
  | Prob of float  (** fire with probability p per arrival (plan-seeded PRNG) *)

type trigger = { point : string; kind : Fault.kind; at : occurrence }

type t = { name : string; seed : int; triggers : trigger list }

val make : ?seed:int -> name:string -> trigger list -> t
val trigger : point:string -> kind:Fault.kind -> at:occurrence -> trigger
val pp : Format.formatter -> t -> unit
val describe : t -> string
