(** Sequence-indexed byte reassembly buffer.

    Stores byte ranges keyed by 32-bit wrap-around sequence numbers and
    yields the contiguous prefix starting at a movable [base].  Used by the
    TCP receive path (out-of-order reassembly) and — crucially — by the
    failover bridge's two output queues, which must match the primary's and
    secondary's reply bytes irrespective of how either TCP layer segmented
    them (paper §3.4, Fig. 2).

    Inserted strings are kept as slices, never concatenated: merging
    islands and consuming bytes copy nothing, and a read copies only the
    bytes it returns. *)

type t

val create : base:Seq32.t -> t
(** [create ~base] is an empty buffer whose next expected byte is [base]. *)

val base : t -> Seq32.t
(** Sequence number of the next byte to be consumed. *)

val insert : t -> seq:Seq32.t -> string -> unit
(** [insert t ~seq data] records [data] at positions [seq ..
    seq+len-1].  Bytes at positions earlier than [base] are clipped;
    overlaps with existing data are resolved (first write wins — identical
    streams make this irrelevant, and TCP retransmissions carry identical
    bytes). *)

val contiguous_length : t -> int
(** Number of bytes available starting exactly at [base] with no gap. *)

val peek : t -> max_len:int -> string
(** Up to [max_len] contiguous bytes from [base], not consumed. *)

val pop : t -> max_len:int -> string
(** Like [peek], but advances [base] past the returned bytes.  When the
    bytes popped are exactly one whole inserted string, that string
    itself is returned. *)

val drop : t -> len:int -> unit
(** Advance [base] by [len], discarding the bytes below the new base.
    [len] may exceed {!contiguous_length}: positions in a gap are then
    skipped as if already consumed, and any island straddling the new
    base is clipped to it. *)

val total_buffered : t -> int
(** Total bytes held, including non-contiguous islands beyond a gap. *)

val is_empty : t -> bool
(** No bytes at all are buffered. *)

val has_byte : t -> Seq32.t -> bool
(** Whether the byte at the given sequence position is buffered (or already
    below base, in which case [false]). *)

val spans : t -> (Seq32.t * int) list
(** Sorted list of (start, length) islands, for diagnostics and tests. *)

val islands : t -> (Seq32.t * string) list
(** Sorted list of (start, data) islands with their bytes — used to
    snapshot a reassembly buffer for state transfer.  Rebuild with
    [create ~base] + [insert]. *)

val pp : Format.formatter -> t -> unit
