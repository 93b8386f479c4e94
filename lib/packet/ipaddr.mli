(** IPv4 addresses. *)

type t

val of_int : int -> t
(** Low 32 bits are used. *)

val to_int : t -> int

val of_string : string -> t
(** Parses dotted-quad ["10.0.0.1"].  Raises [Invalid_argument] on
    malformed input. *)

val to_string : t -> string

val network : t -> prefix:int -> t
(** Network part under a prefix length (e.g. /24). *)

val same_network : t -> t -> prefix:int -> bool

val any : t
(** 0.0.0.0, used as a wildcard. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** [Hashtbl.hash]: a table keyed by addresses buckets them exactly as a
    generic [Hashtbl] would. *)

module Tbl : Hashtbl.S with type key = t
(** Address-keyed table with a monomorphic [equal] and {!hash}. *)

val pp : Format.formatter -> t -> unit
