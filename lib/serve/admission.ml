(** Bounded admission with explicit backpressure.

    Two independent limits guard the serving loop, and each failure
    mode gets its own verdict so callers (and the shed-rate SLO) can
    tell load shedding from resource saturation apart:

    - [Shed] — the FIFO already holds [depth] requests: classic queue
      overflow under open-loop arrival pressure.
    - [Rejected] — admitting the request would push the pending page
      backlog past [backlog_pages_max]: the model of journal/iRAM
      saturation, where accepting more re-encryption work than the
      crash-consistency journal can describe would be dishonest.

    Page accounting uses the per-request decrypt/re-encrypt footprint
    the serving loop will actually pay (first-touch page plus the
    tenant's eager-DMA churn), so large tenants hit the backlog limit
    first — resource-based rejection is class-aware by construction. *)

type verdict = Queued | Shed | Rejected

type t = {
  depth : int;
  backlog_pages_max : int;
  q : (Arrivals.request * int) Queue.t;
  mutable backlog_pages : int;
}

let create ~depth ~backlog_pages_max =
  if depth <= 0 then invalid_arg "Admission.create: depth must be positive";
  if backlog_pages_max <= 0 then
    invalid_arg "Admission.create: backlog_pages_max must be positive";
  { depth; backlog_pages_max; q = Queue.create (); backlog_pages = 0 }

let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let backlog_pages t = t.backlog_pages

(* Depth is checked before backlog: a full queue sheds regardless of
   how light the request is, so [Shed] counts pure arrival overload
   and [Rejected] counts page-weight saturation of a queue that still
   had slots.  An empty queue always admits: a tenant whose footprint
   alone exceeds [backlog_pages_max] would otherwise be rejected
   forever, even with the server idle — the cap bounds *pending* work,
   and one oversized request pending is the closest realisable state
   to the bound. *)
let offer t ~pages req =
  if pages <= 0 then invalid_arg "Admission.offer: pages must be positive";
  if Queue.length t.q >= t.depth then Shed
  else if t.backlog_pages + pages > t.backlog_pages_max && not (Queue.is_empty t.q) then
    Rejected
  else begin
    Queue.add (req, pages) t.q;
    t.backlog_pages <- t.backlog_pages + pages;
    Queued
  end

let take_batch t ~max:n =
  if n <= 0 then invalid_arg "Admission.take_batch: max must be positive";
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      match Queue.take_opt t.q with
      | None -> List.rev acc
      | Some (req, pages) ->
          t.backlog_pages <- t.backlog_pages - pages;
          go (k - 1) (req :: acc)
  in
  go n []
