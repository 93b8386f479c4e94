(* The SplitMix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: storing a boxed [int64] allocates on every draw, while
   [Bytes.get/set_int64_le] move the raw 64 bits. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create ~seed:(Int64.to_int (int64 t))

let bits32 t = Int64.to_int (Int64.shift_right_logical (int64 t) 32)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let[@inline] float t x =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u
