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

val cancel : t -> event_id -> unit
(** Cancelling an already-cancelled event is a no-op.  Cancelling an event
    that already fired is also safe and marks the id cancelled without
    touching the live count — a clock wrapper that parked the event's body
    (pause-aware host) can then observe the cancellation via
    {!is_cancelled} and skip the parked body. *)

val is_cancelled : event_id -> bool

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
