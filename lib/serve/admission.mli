(** Bounded admission queue with explicit backpressure verdicts:
    [Shed] when the FIFO is at [depth] (arrival overload), [Rejected]
    when the pending page backlog would pass [backlog_pages_max]
    (journal/iRAM saturation — the crash-consistency journal can only
    describe so much outstanding re-encryption work). *)

type verdict = Queued | Shed | Rejected

type t

(** @raise Invalid_argument on a non-positive limit. *)
val create : depth:int -> backlog_pages_max:int -> t

val length : t -> int
val is_empty : t -> bool

(** Pages of decrypt/re-encrypt work currently queued. *)
val backlog_pages : t -> int

(** Try to admit [req] carrying [pages] pages of pending work.  Depth
    is checked before backlog, so [Shed] means the queue was full and
    [Rejected] means a non-full queue was page-saturated.
    @raise Invalid_argument when [pages <= 0]. *)
val offer : t -> pages:int -> Arrivals.request -> verdict

(** Pop up to [max] requests in FIFO order, releasing their backlog.
    @raise Invalid_argument when [max <= 0]. *)
val take_batch : t -> max:int -> Arrivals.request list
