(** Deterministic discrete-event simulation engine.

    A single [Engine.t] owns the simulated clock and the event queue.
    Events scheduled for the same instant fire in scheduling order, which
    makes whole-network simulations reproducible.

    The queue is a hierarchical timer wheel: near-future events hash into
    cascading buckets in O(1), far-future events wait in an overflow
    heap, and per-level occupancy bitmaps let the wheel jump straight to
    the next non-empty bucket.  Events fire in exact (time, scheduling
    order); see DESIGN.md 7.11. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t + delay].  A negative delay is
    clipped to zero. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> event_id
(** Absolute-time variant.  Times in the past are clipped to [now]. *)

val schedule_guarded :
  t -> guard:(event_id -> bool) -> delay:Time.t -> (unit -> unit) -> event_id
(** Like {!schedule}, but when the event comes due the engine first asks
    [guard] about it, and runs the body only if the answer is [true].
    On [false] the event still counts as processed and the body stays
    on the record: the guard may keep the id and run the body later with
    {!run_parked}, or drop it.  A host's clock passes one guard for all
    its events: it drops them once the host is dead and parks them while
    it is paused. *)

val reserve : t -> int
(** Take the next scheduling sequence number without scheduling
    anything: the number an event scheduled now would get.  Events
    scheduled later get higher numbers. *)

val schedule_reserved :
  t -> seq:int -> at:Time.t -> (unit -> unit) -> event_id
(** Schedule [f] at [at] under [seq], a number {!reserve} returned and
    no other event used.  The event fires where an event scheduled at
    the moment of the reservation would have: after the events at [at]
    with lower numbers, before those with higher ones.  The caller
    keeps the order exact by inserting it before it would have come
    due: [at] not in the past, and when [at] is now, [seq] above
    {!firing_seq}. *)

val firing_seq : t -> int
(** The sequence number of the event whose body is running, or
    [max_int] outside event bodies (between {!step}s, and after {!run}
    returns).  A reserved event at the current instant has already
    fired, in the order it would have had, exactly when its number is
    below [firing_seq]. *)

val run_parked : event_id -> unit
(** Run the body of an event whose guard declined it at firing time.
    A body runs at most once, and a cancelled event's body is [ignore],
    so a cancel that arrived while the body was parked still holds. *)

val cancel : t -> event_id -> unit
(** Cancelling drops the event's body at once, so nothing it captured
    stays reachable through the queue.  Cancelling an already-cancelled
    event is a no-op.  Cancelling an event that already fired is also
    safe: it leaves the live count alone and only drops a body still
    parked by the event's guard. *)

val pending : t -> int
(** Number of live (non-cancelled) events still queued. *)

val processed : t -> int
(** Cumulative number of events executed since [create].  Cancelled events
    are popped silently and do not count. *)

val cancelled_skips : t -> int
(** Cancelled events the engine discarded while scanning for the next
    live event (heap-top tombstones, cancelled wheel-bucket entries).
    Entries swept by a heap compaction are not counted — this tallies
    engine-side skips, not every reclaimed tombstone.  Deterministic for
    a given schedule, but structural: it depends on when the wheel meets
    a cancelled event, not on what the simulation does. *)

val wheel_cascades : t -> int
(** Non-empty bucket migrations from a coarser wheel level to a finer
    one.  Structural and deterministic, like {!cancelled_skips}. *)

val set_stat_hooks :
  t -> cancelled_skip:(unit -> unit) -> wheel_cascade:(unit -> unit) -> unit
(** Mirror {!cancelled_skips} / {!wheel_cascades} increments into an
    external sink (the obs registry).  [lib/sim] sits below [lib/obs] in
    the layering, so the wiring is injected by the world builder rather
    than referenced directly. *)

val step : t -> bool
(** Execute the next event; [false] if the queue is empty. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the queue, stopping when it is empty, when simulated time would
    exceed [until], or after [max_events] events.  Events beyond [until]
    remain queued and the clock is left at the time of the last executed
    event (or advanced to [until] if nothing fired). *)

val run_for : t -> Time.t -> unit
(** [run_for t d] is [run t ~until:(now t + d)]. *)
