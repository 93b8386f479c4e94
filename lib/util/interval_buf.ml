(* Invariant: [islands] is sorted by modular order relative to [base];
   islands are non-overlapping and never adjacent (adjacent islands are
   merged on insert), and every island starts at or after [base].

   An island holds its bytes as a linked sequence of slices of the
   strings that were inserted, never as one concatenated string: merging
   two islands links their slice lists, consuming bytes advances the
   front slice's offset, and reading copies only the bytes it returns
   (none at all when it returns one whole inserted string). *)

type slice = {
  data : string;
  mutable off : int;
  mutable len : int;
  mutable next : slice; (* == no_slice when last *)
}

let rec no_slice = { data = ""; off = 0; len = 0; next = no_slice }

type island = {
  mutable start : Seq32.t;
  mutable size : int;
  mutable first : slice;
  mutable last : slice;
}

type t = {
  mutable base : Seq32.t;
  mutable islands : island list; (* sorted by start *)
}

let create ~base = { base; islands = [] }
let base t = t.base

let island_end i = Seq32.add i.start i.size

let island ~start data ~off ~len =
  let s = { data; off; len; next = no_slice } in
  { start; size = len; first = s; last = s }

(* Append [b]'s slices to [a]; [b] must start where [a] ends. *)
let join a b =
  a.last.next <- b.first;
  a.last <- b.last;
  a.size <- a.size + b.size

(* Discard the first [n] bytes of [i] (n < i.size). *)
let advance i n =
  let n = ref n in
  i.start <- Seq32.add i.start !n;
  i.size <- i.size - !n;
  while !n > 0 do
    let s = i.first in
    if s.len <= !n then begin
      n := !n - s.len;
      i.first <- s.next
    end
    else begin
      s.off <- s.off + !n;
      s.len <- s.len - !n;
      n := 0
    end
  done

(* The first [n] bytes of [i] (n <= i.size). *)
let read i n =
  let s = i.first in
  if n <= s.len then
    if s.off = 0 && n = String.length s.data then s.data
    else String.sub s.data s.off n
  else begin
    let b = Bytes.create n in
    let rec fill s pos =
      if pos < n then begin
        let k = Int.min s.len (n - pos) in
        Bytes.blit_string s.data s.off b pos k;
        fill s.next (pos + k)
      end
    in
    fill s 0;
    Bytes.unsafe_to_string b
  end

let insert t ~seq data =
  let len = String.length data in
  let cut = Seq32.diff t.base seq in
  if len > 0 && cut < len then begin
    let seq, off = if cut > 0 then (t.base, cut) else (seq, 0) in
    (* Walk the sorted island list, splicing in the parts of
       [data.[off .. off+len-1]] that fall in gaps.  Existing bytes win
       on overlap. *)
    let rec splice seq off len islands =
      if len = 0 then islands
      else
        match islands with
        | [] -> [ island ~start:seq data ~off ~len ]
        | i :: rest ->
          if Seq32.le (Seq32.add seq len) i.start then
            (* entirely before island i *)
            island ~start:seq data ~off ~len :: islands
          else if Seq32.ge seq (island_end i) then
            (* entirely after island i *)
            i :: splice seq off len rest
          else begin
            (* overlap with island i: keep i's bytes, splice the
               non-overlapping head and tail of the new data *)
            let tail = Seq32.diff (island_end i) seq in
            let rest' =
              if tail < len then
                i :: splice (island_end i) (off + tail) (len - tail) rest
              else i :: rest
            in
            let head = Seq32.diff i.start seq in
            if head > 0 then island ~start:seq data ~off ~len:head :: rest'
            else rest'
          end
    in
    let rec merge = function
      | a :: b :: rest when Seq32.equal (island_end a) b.start ->
        join a b;
        merge (a :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    t.islands <- merge (splice seq off (len - off) t.islands)
  end

let contiguous_length t =
  match t.islands with
  | i :: _ when Seq32.equal i.start t.base -> i.size
  | _ -> 0

let peek t ~max_len =
  match t.islands with
  | i :: _ when Seq32.equal i.start t.base && max_len > 0 ->
    read i (Int.min max_len i.size)
  | _ -> ""

let drop t ~len =
  if len > 0 then begin
    let new_base = Seq32.add t.base len in
    let rec go = function
      | [] -> []
      | i :: rest ->
        if Seq32.le (island_end i) new_base then go rest
        else begin
          let cut = Seq32.diff new_base i.start in
          if cut > 0 then advance i cut;
          i :: rest
        end
    in
    t.islands <- go t.islands;
    t.base <- new_base
  end

let pop t ~max_len =
  let s = peek t ~max_len in
  drop t ~len:(String.length s);
  s

let total_buffered t = List.fold_left (fun acc i -> acc + i.size) 0 t.islands

let is_empty t = match t.islands with [] -> true | _ :: _ -> false

let spans t = List.map (fun i -> (i.start, i.size)) t.islands
let islands t = List.map (fun i -> (i.start, read i i.size)) t.islands

let pp fmt t =
  Format.fprintf fmt "@[<h>base=%a" Seq32.pp t.base;
  List.iter
    (fun i -> Format.fprintf fmt " [%a,+%d)" Seq32.pp i.start i.size)
    t.islands;
  Format.fprintf fmt "@]"
