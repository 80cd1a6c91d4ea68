(** The shape every benchmark workload has, so the suite can time,
    trace and check them all the same way. *)

(** What one call produced. *)
type outcome = {
  key : string;  (** calls with equal keys must produce equal digests *)
  items : int;  (** work units the throughput metric counts *)
  attempted : int;  (** operations attempted, for [attempted]/[failed] *)
  failed : int;  (** of those, operations that were refused or went wrong *)
  digest : string;  (** hex digest of the call's simulated outputs *)
  sim : (string * float) list;  (** headline simulated results, for the report *)
}

type t = {
  item : string;  (** what [items] counts *)
  period : int;  (** calls per full round: one per distinct key *)
  bring_up : Span.ctx -> unit;
      (** One fresh bring-up.  The suite runs several and times them
          for [setup_s]; calls use the state of the last one, if any. *)
  call : int -> outcome;  (** call [i] through the public entry point, untraced *)
  traced : Span.ctx -> int -> outcome;
      (** the same work as [call], with spans around each layer call *)
  two_domains : (unit -> outcome) option;
      (** the same call on a two-domain pool, where the workload has a
          pool: run once, untimed, its outputs must equal [call]'s *)
  pin : string -> string option;  (** the expected digest for a key at this seed *)
}

let digest_of_string s = Digest.to_hex (Digest.string s)

(** [%h] keeps every bit of a float, so a digest over it moves when
    any simulated value does. *)
let floats xs = String.concat "," (List.map (Printf.sprintf "%h") xs)
