(** Bounded-ring trace recorder.

    {!Recorder} is the explicit-handle API: create a recorder, thread
    it to whatever harvests events, read it back — one per tenant
    shard in the multicore fleet.  The module-level functions operate
    on the calling domain's {e ambient} recorder ([install] —
    the slot is [Domain.DLS], so each domain owns its own and freshly
    spawned pool workers start with none installed); hot-path emitters
    use those so the disabled path stays one domain-local read with
    zero allocation. *)

type stats = { emitted : int; dropped : int; capacity : int }

module Recorder : sig
  type t

  (** [create ?capacity ?now ()] — a fresh recorder.  [now] is the
      simulated-time source used when an emitter has no clock at hand.
      Default capacity: 65536 events. *)
  val create : ?capacity:int -> ?now:(unit -> float) -> unit -> t

  (** Point clockless emitters at the owning machine's simulated clock. *)
  val set_time_source : t -> (unit -> float) -> unit

  (** Current simulated time per the time source. *)
  val now : t -> float

  (** Record one event.  [ts] defaults to the time source; [parent]
      defaults to the innermost open span (0 when none); [span]
      defaults to 0 (not a tracked span). *)
  val emit :
    t ->
    ?ts:float ->
    ?span:int ->
    ?parent:int ->
    cat:Event.category ->
    subsystem:string ->
    ?phase:Event.phase ->
    ?args:(string * Event.arg) list ->
    string ->
    unit

  (** Record a [Complete] span from its simulated boundaries.  Gets a
      fresh span id and the innermost open span as parent. *)
  val span :
    t ->
    ?args:(string * Event.arg) list ->
    cat:Event.category ->
    subsystem:string ->
    start_ns:float ->
    end_ns:float ->
    string ->
    unit

  (** Push an open span (parent = previous top of stack).  [ts]
      defaults to the time source. *)
  val enter_span : t -> ?ts:float -> cat:Event.category -> subsystem:string -> string -> unit

  (** Pop the innermost open span and emit its [Complete] event with
      end time [ts] (default: time source).  No-op on an empty stack. *)
  val exit_span : t -> ?ts:float -> ?args:(string * Event.arg) list -> unit -> unit

  (** Number of currently open (entered, not yet exited) spans. *)
  val open_depth : t -> int

  (** [merge a b] — a fresh recorder holding both inputs' retained
      events, stably interleaved by simulated timestamp, with [b]'s
      span/parent ids offset past [a]'s so causal trees never collide.
      Category counts add and drop counts carry over, so its [stats]
      report the sum of both inputs' emissions.  Deterministic; inputs
      are untouched.  Merge only quiesced recorders (open spans do not
      travel). *)
  val merge : t -> t -> t

  val stats : t -> stats

  (** Retained events, oldest first (newest [capacity] survive overflow). *)
  val events : t -> Event.t list

  (** Per-category emission counts, including dropped events. *)
  val category_counts : t -> (Event.category * int) list

  (** Reset the ring and counters. *)
  val clear : t -> unit
end

(** {2 The ambient recorder}

    One installed handle behind one domain-local read — what the
    hot-path emitters go through. *)

(** Make [r] the ambient recorder. *)
val install : Recorder.t -> unit

(** Remove the ambient recorder (its events stay readable through the
    handle). *)
val uninstall : unit -> unit

(** The ambient recorder, if any — how harvesters default when no
    explicit handle was threaded to them. *)
val installed : unit -> Recorder.t option

(** Is an ambient recorder installed?  The hot-path guard: emitters
    must check this before building argument lists. *)
val on : unit -> bool

(** The emitters below delegate to the ambient recorder and are
    no-ops when none is installed.  Harvesting goes through a
    {!Recorder} handle ([installed], or the one that was installed). *)

val set_time_source : (unit -> float) -> unit
val now : unit -> float

val emit :
  ?ts:float ->
  cat:Event.category ->
  subsystem:string ->
  ?phase:Event.phase ->
  ?args:(string * Event.arg) list ->
  string ->
  unit

val span :
  ?args:(string * Event.arg) list ->
  cat:Event.category ->
  subsystem:string ->
  start_ns:float ->
  end_ns:float ->
  string ->
  unit

val enter_span : ?ts:float -> cat:Event.category -> subsystem:string -> string -> unit
val exit_span : ?ts:float -> ?args:(string * Event.arg) list -> unit -> unit
