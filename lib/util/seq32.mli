(** 32-bit wrap-around TCP sequence-number arithmetic (RFC 793 / RFC 1982).

    TCP sequence numbers live in the ring [0, 2^32).  All comparisons are
    modular: [lt a b] means that [a] precedes [b] on the ring, assuming the
    two values are within 2^31 of each other (which TCP guarantees for any
    live connection window). *)

type t
(** A sequence number.  Always in the range [0, 2^32). *)

val zero : t

val of_int : int -> t
(** [of_int n] is [n land 0xFFFF_FFFF].  Total: any int is accepted and
    reduced mod 2^32. *)

val to_int : t -> int
(** [to_int s] is the representative in [0, 2^32). *)

val add : t -> int -> t
(** [add s n] advances [s] by [n] (mod 2^32); [n] may be negative. *)

val diff : t -> t -> int
(** [diff a b] is the signed distance [a - b] interpreted in
    (-2^31, 2^31].  [diff (add b n) b = n] for |n| < 2^31. *)

val succ : t -> t

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

val max : t -> t -> t
(** Later of the two on the ring. *)

val min : t -> t -> t
(** Earlier of the two on the ring. *)

val between : low:t -> high:t -> t -> bool
(** [between ~low ~high s] is [le low s && lt s high], i.e. membership in
    the half-open window [low, high). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
