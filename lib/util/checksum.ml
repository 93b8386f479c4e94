type t = int

let fold sum =
  let rec go s = if s > 0xFFFF then go ((s land 0xFFFF) + (s lsr 16)) else s in
  go sum

let partial ?(accum = 0) b =
  let n = Bytes.length b in
  let sum = ref accum in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + (Char.code (Bytes.unsafe_get b !i) lsl 8)
           + Char.code (Bytes.unsafe_get b (!i + 1));
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Char.code (Bytes.unsafe_get b !i) lsl 8);
  fold !sum

let finish sum = lnot (fold sum) land 0xFFFF

let of_bytes ?accum b = finish (partial ?accum b)

(* RFC 1624: HC' = ~(~HC + ~m + m').  We work with folded 16-bit sums. *)
let adjust16 ck ~old16 ~new16 =
  let hc = lnot ck land 0xFFFF in
  let sum = fold (hc + (lnot old16 land 0xFFFF) + (new16 land 0xFFFF)) in
  lnot sum land 0xFFFF

let adjust32 ck ~old32 ~new32 =
  let ck = adjust16 ck ~old16:(old32 lsr 16) ~new16:(new32 lsr 16) in
  adjust16 ck ~old16:(old32 land 0xFFFF) ~new16:(new32 land 0xFFFF)

let valid b = fold (partial b) = 0xFFFF
