(** Energy accounting with per-category attribution.

    The paper reports energy for encryption, decryption, page zeroing
    and full-memory sweeps separately; categories keep those
    attributable without separate meters.

    Accumulators are single-float records (flat representation:
    updating one allocates nothing).  The per-cache-line paths do not
    call in here at all: they hold a [meter] and add to its two cells
    in place. *)

type cell = { mutable j : float }

type t = { total : cell; by_category : (string, cell) Hashtbl.t }

let create () = { total = { j = 0.0 }; by_category = Hashtbl.create 16 }

let charge t ~category joules =
  t.total.j <- t.total.j +. joules;
  match Hashtbl.find t.by_category category with
  | c -> c.j <- c.j +. joules
  | exception Not_found -> Hashtbl.add t.by_category category { j = joules }

(** A pre-resolved charging handle: the per-cache-line components look
    their category cell up once at construction, so each charge is two
    float adds — no string hashing on the access path.  Charges made
    through a meter land in the same cells as [charge], so the two are
    freely interchangeable and bit-identical. *)
type meter = { totals : cell; own : cell }

let meter t ~category =
  let own =
    match Hashtbl.find t.by_category category with
    | c -> c
    | exception Not_found ->
        let c = { j = 0.0 } in
        Hashtbl.add t.by_category category c;
        c
  in
  { totals = t.total; own }

let meter_charge_bytes m ~per_byte_j bytes =
  let joules = float_of_int bytes *. per_byte_j in
  m.totals.j <- m.totals.j +. joules;
  m.own.j <- m.own.j +. joules

let total t = t.total.j

let category t name =
  match Hashtbl.find_opt t.by_category name with Some c -> c.j | None -> 0.0

let categories t =
  Hashtbl.fold (fun k c acc -> (k, c.j) :: acc) t.by_category []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  t.total.j <- 0.0;
  Hashtbl.reset t.by_category

(** [metered t ~category:c f] runs [f ()] and returns its result with
    the energy charged to [c] during the call. *)
let metered t ~category:c f =
  let before = category t c in
  let result = f () in
  (result, category t c -. before)

let pp ppf t =
  Fmt.pf ppf "total %a" Sentry_util.Units.pp_energy t.total.j;
  List.iter
    (fun (k, v) -> Fmt.pf ppf "@ %s: %a" k Sentry_util.Units.pp_energy v)
    (categories t)
