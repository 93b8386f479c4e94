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
    ended the message.  Use {!partial_parity} to sum across arbitrary
    split points. *)

val partial_parity : ?state:int * bool -> bytes -> int * bool
(** Parity-carrying chunked sum.  The state is [(sum, odd)]: [odd] means
    the previous chunk ended mid-word, and the next chunk's first byte
    fills the low half of that word.  Feed each chunk the previous
    result; [fst] of the final state equals [partial] of the
    concatenation (then {!finish} it).  Initial state [(0, false)]. *)

val finish : int -> t
(** Fold and complement a partial sum into a final checksum. *)

val adjust : t -> old_bytes:bytes -> new_bytes:bytes -> t
(** [adjust ck ~old_bytes ~new_bytes] is the checksum of a message whose
    checksum was [ck] after the 16-bit-aligned region [old_bytes] is
    replaced by [new_bytes] (same length, RFC 1624 eqn. 3). *)

val adjust16 : t -> old16:int -> new16:int -> t
(** Single 16-bit word replacement. *)

val adjust32 : t -> old32:int -> new32:int -> t
(** Single 32-bit (two-word) replacement, e.g. an IPv4 address. *)

val valid : bytes -> bool
(** A buffer whose checksum field is in place sums to 0xFFFF; [valid b]
    checks that property over the whole buffer. *)
