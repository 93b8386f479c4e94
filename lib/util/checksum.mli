(** Internet ones-complement checksum (RFC 1071) with incremental update
    (RFC 1624), as used by the TCP failover bridge when it rewrites address
    fields of in-flight segments (paper §3.1: "we subtract the original
    bytes from the checksum, and add the new bytes"). *)

type t = int
(** A 16-bit checksum value in [0, 0xFFFF]. *)

val of_bytes : ?accum:int -> bytes -> t
(** [of_bytes b] is the ones-complement of the ones-complement sum of the
    16-bit big-endian words of [b] (odd trailing byte padded with zero).
    [accum] is an optional pre-folded partial sum (not complemented),
    allowing pseudo-header prefixes. *)

val partial : ?accum:int -> bytes -> int
(** Uncomplemented running 16-bit ones-complement sum of [b], foldable.
    Chaining via [accum] is only correct when every chunk but the last
    has even length — an odd chunk's trailing byte is padded as if it
    ended the message. *)

val finish : int -> t
(** Fold and complement a partial sum into a final checksum. *)

val adjust16 : t -> old16:int -> new16:int -> t
(** [adjust16 ck ~old16 ~new16] is the checksum of a message whose
    checksum was [ck] after one 16-bit word [old16] is replaced by
    [new16] (RFC 1624 eqn. 3). *)

val adjust32 : t -> old32:int -> new32:int -> t
(** Single 32-bit (two-word) replacement, e.g. an IPv4 address. *)

val valid : bytes -> bool
(** A buffer whose checksum field is in place sums to 0xFFFF; [valid b]
    checks that property over the whole buffer. *)
