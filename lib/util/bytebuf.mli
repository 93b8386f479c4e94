(** Bounded byte queue with stable absolute offsets.

    Models a TCP socket send buffer: the application appends at the tail
    (up to [capacity] un-acknowledged bytes), the stack reads anywhere in
    the live window for (re)transmission, and acknowledged bytes are
    released from the head.  Offsets are absolute byte counts since the
    buffer was created, so they map 1:1 onto sequence-number deltas. *)

type t

val create : capacity:int -> t
(** An empty buffer that will hold at most [capacity] bytes.  No byte
    storage is allocated until the first {!push}; the storage then grows
    with the bytes held, up to [capacity]. *)

val capacity : t -> int
(** The logical bound on held bytes given at creation (the socket send
    buffer size), not the size of the storage allocated so far. *)

val length : t -> int
(** Bytes currently held. *)

val free : t -> int
(** [capacity - length]. *)

val start_offset : t -> int
(** Absolute offset of the first held byte. *)

val end_offset : t -> int
(** Absolute offset one past the last held byte ([start + length]). *)

val push : t -> string -> int
(** [push t s] appends as much of [s] as fits and returns the number of
    bytes accepted (possibly 0). *)

val read : t -> pos:int -> len:int -> string
(** [read t ~pos ~len] returns the bytes at absolute offsets
    [pos .. pos+len-1], clipped to the held range.  Requires
    [pos >= start_offset t]. *)

val of_string : capacity:int -> start_offset:int -> string -> t
(** [of_string ~capacity ~start_offset data] rebuilds a buffer whose held
    window is exactly [data] at absolute offsets [start_offset ..
    start_offset + length data - 1].  Used to restore a snapshotted send
    buffer on another host.  Raises [Invalid_argument] if [data] exceeds
    [capacity]. *)

val release_to : t -> pos:int -> unit
(** Discard all bytes below absolute offset [pos] (no-op if already
    released). *)

val is_empty : t -> bool
