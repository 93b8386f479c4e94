(** Central metrics registry: named counters, gauges and histograms with
    hierarchical dotted names ([tcp.retransmits], [medium.collisions],
    [bridge.primary.held_bytes], ...).

    One registry typically serves a whole simulated world; every layer
    registers its instruments at creation time and holds on to the
    returned handles, so the hot path is a plain field update — no name
    lookup, no allocation.

    Instruments are create-or-get: registering the same name twice (same
    kind) returns the same instrument, which is what lets several
    instances of a component (two bridges in a chain, N NICs) aggregate
    into one series, and lets a reinstalled component continue its
    counts.  Registering an existing name with a different kind raises
    [Invalid_argument].

    Snapshots are deterministic: instruments are rendered sorted by name,
    so two runs with the same seed produce byte-identical JSON. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
end

module Gauge : sig
  val set : gauge -> int -> unit
  val add : gauge -> int -> unit
  val value : gauge -> int
end

(** Histograms keep log-linear bucket counts, not samples: 128 linear
    sub-buckets per power of two, over the range of values seen so far.
    [observe] is O(1) and allocates nothing, and memory depends on that
    range, not on the number of observations. *)
module Histogram : sig
  val observe : histogram -> float -> unit

  val observe_us : histogram -> Tcpfo_sim.Time.t -> unit
  (** [observe_us h d] observes the duration [d] in microseconds; unlike
      [observe h (Time.to_us d)] it boxes no float, so a warm call
      allocates nothing. *)

  val count : histogram -> int

  val summary : histogram -> Tcpfo_util.Stats.summary option
  (** [None] when no observation has been recorded.  [count], [min] and
      [max] are exact; [mean] and [stddev] are computed incrementally
      (Welford).  Each percentile is the lowest value of the bucket
      holding its nearest-rank order statistic, clamped to [[min, max]]:
      within a relative 2{^-7} below the exact value, and exact for
      integers below 256.  Values [<= 0] all report as 0 (clamped). *)
end

(** {2 Lookups by name}

    For tests and end-of-run reporting; absent names read as zero/empty
    rather than raising, so assertions read naturally. *)

val counter_value : t -> string -> int
val gauge_value : t -> string -> int
val histogram_summary : t -> string -> Tcpfo_util.Stats.summary option

val names : t -> string list
(** All registered instrument names, sorted. *)

val to_json : t -> string
(** Machine-readable snapshot:
    [{"counters":{...},"gauges":{...},"histograms":{...}}], keys sorted,
    single line.  Byte-identical across runs with identical inputs. *)

val dump : t -> string
(** Human-readable snapshot, one [name value] line per instrument,
    sorted by name. *)
