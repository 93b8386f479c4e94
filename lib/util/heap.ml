type 'a entry = { prio : int; tie : int; value : 'a }

type 'a t = {
  mutable arr : 'a entry array;
  mutable size : int;
  mutable next_tie : int;
}

let create () = { arr = [||]; size = 0; next_tie = 0 }

let length t = t.size
let is_empty t = t.size = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.tie < b.tie)

let grow t =
  let cap = max 16 (2 * Array.length t.arr) in
  let dummy = t.arr.(0) in
  let arr = Array.make cap dummy in
  Array.blit t.arr 0 arr 0 t.size;
  t.arr <- arr

let sift_down t i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t.arr.(l) t.arr.(!smallest) then smallest := l;
    if r < t.size && less t.arr.(r) t.arr.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.arr.(!smallest) in
      t.arr.(!smallest) <- t.arr.(!i);
      t.arr.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let push t ~prio value =
  let e = { prio; tie = t.next_tie; value } in
  t.next_tie <- t.next_tie + 1;
  if t.size = Array.length t.arr then
    if t.size = 0 then t.arr <- Array.make 16 e else grow t;
  t.arr.(t.size) <- e;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less t.arr.(!i) t.arr.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = t.arr.(p) in
    t.arr.(p) <- t.arr.(!i);
    t.arr.(!i) <- tmp;
    i := p
  done

let peek_prio t = if t.size = 0 then None else Some t.arr.(0).prio

let peek t =
  if t.size = 0 then None else Some (t.arr.(0).prio, t.arr.(0).value)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.arr.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.arr.(0) <- t.arr.(t.size);
      sift_down t 0
    end;
    Some (top.prio, top.value)
  end
