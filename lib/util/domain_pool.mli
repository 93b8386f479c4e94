(** Deterministic parallel map over independent tasks (OCaml 5 domains).

    Built for the bench harness: every experiment trial constructs a fully
    independent simulated world from its own seed, so trials can run on
    separate domains with no shared mutable state.  Results are gathered
    by task index, making the output independent of scheduling order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [map ~jobs n f] is [[f 0; f 1; ...; f (n-1)]], computed on up to
    [jobs] domains (including the calling one).  [jobs] defaults to 1,
    which runs everything serially in the calling domain in ascending
    index order — no domain is spawned.  If one or more tasks raise, the
    exception of the smallest failing index is re-raised after all tasks
    have finished.

    [f] must not touch mutable state shared with other tasks; the bench
    trial functions satisfy this by building one world per call. *)
