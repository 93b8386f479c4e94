(* Ring-buffer implementation.

   The original representation kept pushed strings as a chunk list and
   re-appended the reversed tail on every read ([chunks @ List.rev
   tail_rev]), making a push/read-heavy workload — exactly what the TCP
   send path does per segment — quadratic in the number of outstanding
   chunks.  The capacity is fixed at creation, so a circular byte buffer
   gives O(n) push/read in the bytes moved and O(1) release, independent
   of access history.

   The physical ring is sized by content: it starts empty and grows to
   the larger of what is needed and twice its size, never past
   [capacity].  A connection that never sends holds no ring at all, and
   one that sends 16 B requests holds a few dozen bytes — not a send
   buffer's worth.  The ring itself never shrinks; a TCB drops it for an
   empty buffer at the same offsets once its FIN is acknowledged. *)

type t = {
  capacity : int;
  mutable buf : Bytes.t; (* physical ring; grows up to [capacity] *)
  mutable head : int; (* physical index of the first held byte *)
  mutable start : int; (* absolute offset of first held byte *)
  mutable len : int;
}

let create ~capacity =
  { capacity; buf = Bytes.empty; head = 0; start = 0; len = 0 }

let capacity t = t.capacity
let length t = t.len
let free t = t.capacity - t.len
let start_offset t = t.start
let end_offset t = t.start + t.len
let is_empty t = t.len = 0

(* Re-allocate the ring to hold at least [needed] bytes, linearizing the
   live window to the front. *)
let grow t needed =
  let size = Bytes.length t.buf in
  let b = Bytes.create (Int.min t.capacity (Int.max needed (2 * size))) in
  let first = Int.min t.len (size - t.head) in
  Bytes.blit t.buf t.head b 0 first;
  if t.len > first then Bytes.blit t.buf 0 b first (t.len - first);
  t.buf <- b;
  t.head <- 0

let push t s =
  let n = Int.min (String.length s) (free t) in
  if n > 0 then begin
    if t.len + n > Bytes.length t.buf then grow t (t.len + n);
    (* [n > 0] and the grow above make the ring non-empty *)
    let size = Bytes.length t.buf in
    let tail = (t.head + t.len) mod size in
    let first = Int.min n (size - tail) in
    Bytes.blit_string s 0 t.buf tail first;
    if n > first then Bytes.blit_string s first t.buf 0 (n - first);
    t.len <- t.len + n
  end;
  n

let read t ~pos ~len =
  assert (pos >= t.start);
  let avail = t.start + t.len - pos in
  let len = Int.min len (Int.max 0 avail) in
  if len = 0 then ""
  else begin
    (* [len > 0] implies held bytes, so the ring is non-empty *)
    let size = Bytes.length t.buf in
    let off = (t.head + (pos - t.start)) mod size in
    let b = Bytes.create len in
    let first = Int.min len (size - off) in
    Bytes.blit t.buf off b 0 first;
    if len > first then Bytes.blit t.buf 0 b first (len - first);
    Bytes.unsafe_to_string b
  end

let of_string ~capacity ~start_offset data =
  let len = String.length data in
  if len > capacity then invalid_arg "Bytebuf.of_string: data exceeds capacity";
  let t = create ~capacity in
  t.start <- start_offset;
  if t.len + len > Bytes.length t.buf then grow t len;
  Bytes.blit_string data 0 t.buf 0 len;
  t.len <- len;
  t

let release_to t ~pos =
  if pos > t.start then begin
    let drop = Int.min (pos - t.start) t.len in
    let size = Bytes.length t.buf in
    (* a never-pushed ring is empty: nothing to advance *)
    if size > 0 then t.head <- (t.head + drop) mod size;
    t.start <- t.start + drop;
    t.len <- t.len - drop
  end
