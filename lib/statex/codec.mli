(** Big-endian binary codec with a versioned, integrity-checked envelope
    ([TFX1] magic, u16 version, u32 body length, FNV-1a-64 digest).

    Writers never fail; readers raise {!Corrupt} on malformed input, and
    {!unseal} converts any decoding problem into [Error] so a damaged
    snapshot is rejected before anything is installed. *)

exception Corrupt of string

module W : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val bool : t -> bool -> unit
  val str : t -> string -> unit
  val float : t -> float -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val contents : t -> string
end

module R : sig
  type t

  val of_string : string -> t
  val raw : t -> int -> string
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val bool : t -> bool
  val str : t -> string
  val float : t -> float
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val at_end : t -> bool
end

val fnv1a64 : string -> int64

val version : int
(** The one envelope version: written by {!seal}, and the only one
    {!unseal} accepts. *)

val seal : string -> string
(** Wrap a body in the versioned envelope (at {!version}). *)

val unseal : string -> (string, string) result
(** Verify magic, version, length and digest; return the body.  Any
    version other than {!version} is refused. *)
