(** Small descriptive-statistics helpers for the measurement harness
    (the paper reports medians and maxima; §9). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

val summarize : float list -> summary
(** Exact summary of a sample, sorted once.  Raises [Invalid_argument]
    on an empty list. *)

val median : float list -> float
val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], nearest-rank on the sorted
    sample. *)

val nearest_rank : float -> int -> int
(** [nearest_rank p n] is the 0-based index in a sorted sample of [n]
    values that {!percentile} [p] reports: [ceil (p/100 · n) - 1],
    clamped to [[0, n-1]]. *)

val mean : float list -> float

val pp_summary : Format.formatter -> summary -> unit
