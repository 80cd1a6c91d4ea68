(** A Linux-Crypto-API-like cipher registry.

    Implementations register under a name with a priority; lookups by
    algorithm name return the highest-priority implementation.  Sentry
    registers AES_On_SoC with a higher priority than the generic AES,
    so legacy users of the API — dm-crypt in particular — pick it up
    transparently (§7, Selective Encryption). *)

type impl = {
  name : string; (* driver name, e.g. "aes-generic" *)
  algorithm : string; (* algorithm it implements, e.g. "cbc(aes)" *)
  priority : int;
  set_key : bytes -> unit;
  encrypt : iv:bytes -> bytes -> bytes;
  decrypt : iv:bytes -> bytes -> bytes;
}

type t = { mutable impls : impl list }

let create () = { impls = [] }

let register t impl = t.impls <- impl :: t.impls

(** [find t ~algorithm] — highest-priority registered implementation.
    @raise Not_found if nothing implements [algorithm]. *)
let find t ~algorithm =
  let candidates = List.filter (fun i -> i.algorithm = algorithm) t.impls in
  match List.sort (fun a b -> compare b.priority a.priority) candidates with
  | [] -> raise Not_found
  | best :: _ ->
      if Sentry_obs.Trace.on () then
        Sentry_obs.Trace.emit ~cat:Sentry_obs.Event.Crypto ~subsystem:"crypto.api" "dispatch"
          ~args:
            [
              ("algorithm", Sentry_obs.Event.Str algorithm);
              ("driver", Sentry_obs.Event.Str best.name);
              ("priority", Sentry_obs.Event.Int best.priority);
            ];
      best

let list t =
  List.sort (fun a b -> compare (b.priority, b.name) (a.priority, a.name)) t.impls
