type t = int

let mask = 0xFFFF_FFFF

let of_int n = n land mask
let to_int t = t
let any = 0

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare a b
let hash (t : t) = Hashtbl.hash t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xFF) ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF) (t land 0xFF)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    (try
       List.fold_left
         (fun acc part ->
           let v = int_of_string part in
           if v < 0 || v > 255 then failwith "octet";
           (acc lsl 8) lor v)
         0 [ a; b; c; d ]
     with _ -> invalid_arg ("Ipaddr.of_string: " ^ s))
  | _ -> invalid_arg ("Ipaddr.of_string: " ^ s)

let network t ~prefix =
  if prefix <= 0 then 0
  else if prefix >= 32 then t
  else t land (mask lxor ((1 lsl (32 - prefix)) - 1))

let same_network a b ~prefix = network a ~prefix = network b ~prefix

let pp fmt t = Format.pp_print_string fmt (to_string t)
