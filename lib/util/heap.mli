(** Array-based binary min-heap with integer priorities and a stable
    tiebreaker (the simulator's tick queues use it).  Entries with equal
    priority pop in insertion order, which keeps simulations deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum (priority, value), or [None] if empty. *)

val peek_prio : 'a t -> int option
(** Priority of the minimum entry without removing it. *)

val peek : 'a t -> (int * 'a) option
(** Minimum (priority, value) without removing it. *)
