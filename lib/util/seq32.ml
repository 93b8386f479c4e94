type t = int

let mask = 0xFFFF_FFFF
let half = 0x8000_0000

let zero = 0
let of_int n = n land mask
let to_int s = s

let add s n = (s + n) land mask
let succ s = add s 1

(* Signed modular distance in (-2^31, 2^31]. *)
let diff a b =
  let d = (a - b) land mask in
  if d >= half then d - (mask + 1) else d

let lt a b = diff a b < 0
let le a b = diff a b <= 0
let gt a b = diff a b > 0
let ge a b = diff a b >= 0
let max a b = if ge a b then a else b
let min a b = if le a b then a else b
let equal (a : t) (b : t) = a = b

let between ~low ~high s = le low s && lt s high

let pp fmt s = Format.fprintf fmt "%u" s
let to_string s = string_of_int s
