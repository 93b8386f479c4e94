(* [cancelled] and [consumed] are tracked separately so that an id can be
   cancelled *after* its event fired and the distinction still observed:
   a guarded event whose body was parked at firing time (a paused host,
   see Tcpfo_host.Host) must honour a cancel that arrives while the body
   is parked.  Cancelling drops the body at once ([fn <- ignore]), so a
   tombstone waiting in a bucket pins nothing it captured.

   The record doubles as the queue node: [at]/[seq] order it, [fn] is the
   body, [next] threads it through a timer-wheel bucket, and [home] tells
   {!cancel} which structure currently holds it.  [guard] is consulted at
   firing time and decides whether the body runs now.  One allocation per
   scheduled event, reused end to end — scheduling never builds a
   separate heap entry or closure wrapper. *)
type event_id = {
  mutable cancelled : bool;
  mutable consumed : bool;
  mutable at : Time.t;
  mutable seq : int; (* global scheduling order; total tie-break *)
  mutable fn : unit -> unit;
  mutable next : event_id; (* intrusive bucket link; == nil when last *)
  mutable home : int; (* which structure holds the event, see home_* *)
  guard : event_id -> bool; (* [true]: run the body now *)
}

(* home values *)
let home_bucket = 0 (* a wheel bucket; swept when the bucket cascades *)
let home_cur = 1 (* the open-slot heap *)
let home_overflow = 2 (* the far-future heap *)
let home_done = 3 (* popped (fired or discarded) *)

let unguarded (_ : event_id) = true

let rec nil =
  { cancelled = true; consumed = true; at = max_int; seq = -1; fn = ignore;
    next = nil; home = home_done; guard = unguarded }

(* ------------------------------------------------------------------ *)
(* Flat binary min-heap over event_ids ordered by (at, seq), backing the
   wheel's open-slot and overflow queues.  It stores the event records
   directly (no per-push entry allocation) and orders by the global
   scheduling sequence, so
   events that reach a queue out of scheduling order (a cascaded wheel
   bucket merging with directly-scheduled events) still pop in
   (time, scheduling order).  Cancelled entries are tombstones:
   [note_dead] sweeps them once they outnumber the live entries. *)
module Evheap = struct
  type h = {
    mutable arr : event_id array;
    mutable size : int;
    mutable dead : int;
  }

  let create () = { arr = [||]; size = 0; dead = 0 }
  let is_empty h = h.size = 0

  let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let sift_down h i =
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h.arr.(l) h.arr.(!smallest) then smallest := l;
      if r < h.size && less h.arr.(r) h.arr.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.arr.(!smallest) in
        h.arr.(!smallest) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done

  let push h ev =
    if h.size = Array.length h.arr then begin
      let cap = Int.max 16 (2 * Array.length h.arr) in
      let arr = Array.make cap nil in
      Array.blit h.arr 0 arr 0 h.size;
      h.arr <- arr
    end;
    h.arr.(h.size) <- ev;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less h.arr.(!i) h.arr.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.arr.(p) in
      h.arr.(p) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := p
    done

  let peek h = if h.size = 0 then nil else h.arr.(0)

  let pop h =
    if h.size = 0 then nil
    else begin
      let top = h.arr.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.arr.(0) <- h.arr.(h.size);
        h.arr.(h.size) <- nil;
        sift_down h 0
      end
      else h.arr.(0) <- nil;
      if h.dead > 0 && top.cancelled then h.dead <- h.dead - 1;
      top
    end

  (* Sweep tombstones once more than half the array is dead; (at, seq)
     is a total order, so re-heapifying the survivors cannot change
     their pop sequence. *)
  let compact h =
    let kept = ref 0 in
    for i = 0 to h.size - 1 do
      let ev = h.arr.(i) in
      if not ev.cancelled then begin
        h.arr.(!kept) <- ev;
        incr kept
      end
      else ev.home <- home_done
    done;
    for i = !kept to h.size - 1 do
      h.arr.(i) <- nil
    done;
    h.size <- !kept;
    h.dead <- 0;
    for i = (h.size / 2) - 1 downto 0 do
      sift_down h i
    done

  let note_dead h =
    h.dead <- h.dead + 1;
    if 2 * h.dead > h.size then compact h
end

(* ------------------------------------------------------------------ *)
(* Hierarchical timer wheel: [levels] wheels of [wheel_slots] buckets
   each, level [l] bucketing [granularity * wheel_slots^l] nanoseconds
   per slot.  Near-future events hash into the finest wheel in O(1);
   each coarser wheel covers 256x more time; anything beyond the top
   span (~73 simulated minutes) waits in the overflow heap.  Events of
   the slot currently being drained sit in [cur], a small (at, seq)
   heap, which yields the exact global (time, scheduling order) firing
   sequence.

   Each level carries a 256-bit occupancy bitmap (one bit per bucket,
   set while the bucket is non-empty), so the wheel position jumps
   straight to the next bucket that holds anything instead of visiting
   empty slots one by one. *)

let slot_bits = 10 (* 1.024 us granularity *)
let wheel_bits = 8
let wheel_slots = 1 lsl wheel_bits
let slot_mask = wheel_slots - 1
let levels = 4

(* occupancy words: [words] ints of [word_bits] bits per level *)
let word_bits = 32
let words = wheel_slots / word_bits

type t = {
  mutable clock : Time.t;
  heads : event_id array array; (* heads.(level).(slot), nil when empty *)
  tails : event_id array array;
  occupied : int array; (* occupied.(level * words + slot / word_bits) *)
  mutable opened : int; (* absolute level-0 slot number currently open *)
  cur : Evheap.h;
  overflow : Evheap.h;
  mutable live : int;
  mutable processed : int;
  mutable seq : int;
  mutable firing : int; (* seq of the event whose body runs; max_int between *)
  mutable cancelled_skips : int;
  mutable wheel_cascades : int;
  mutable on_cancelled_skip : unit -> unit;
  mutable on_wheel_cascade : unit -> unit;
}

let create () =
  { clock = 0;
    heads = Array.init levels (fun _ -> Array.make wheel_slots nil);
    tails = Array.init levels (fun _ -> Array.make wheel_slots nil);
    occupied = Array.make (levels * words) 0;
    opened = 0; cur = Evheap.create (); overflow = Evheap.create ();
    live = 0; processed = 0; seq = 0; firing = max_int; cancelled_skips = 0;
    wheel_cascades = 0; on_cancelled_skip = ignore;
    on_wheel_cascade = ignore }

let now t = t.clock
let processed t = t.processed
let firing_seq t = t.firing
let cancelled_skips t = t.cancelled_skips
let wheel_cascades t = t.wheel_cascades

let set_stat_hooks t ~cancelled_skip ~wheel_cascade =
  t.on_cancelled_skip <- cancelled_skip;
  t.on_wheel_cascade <- wheel_cascade

let discard t ev =
  ev.home <- home_done;
  t.cancelled_skips <- t.cancelled_skips + 1;
  t.on_cancelled_skip ()

(* ------------------------- occupancy bitmaps ---------------------- *)

(* Count trailing zeros of a non-zero 32-bit word (de Bruijn). *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = ctz_table.((((x land -x) * 0x077CB531) land 0xFFFF_FFFF) lsr 27)

let mark t ~level ~slot =
  let i = (level * words) + (slot / word_bits) in
  t.occupied.(i) <- t.occupied.(i) lor (1 lsl (slot land (word_bits - 1)))

let unmark t ~level ~slot =
  let i = (level * words) + (slot / word_bits) in
  t.occupied.(i) <-
    t.occupied.(i) land lnot (1 lsl (slot land (word_bits - 1)))

(* The first occupied bucket of [level] at or circularly after [from],
   or -1 when the level is empty. *)
let rec next_occupied t ~level ~from =
  let base = level * words in
  let w0 = from / word_bits in
  let low = from land (word_bits - 1) in
  let first = t.occupied.(base + w0) land (-1 lsl low) in
  if first <> 0 then (w0 * word_bits) + ctz32 first
  else scan_words t ~base ~w0 ~low 1

(* The other words after [w0], then [w0] again for the bits below [low].
   Top-level, like {!place} and {!advance_from}, so that finding the next
   event allocates no closure. *)
and scan_words t ~base ~w0 ~low i =
  if i > words then -1
  else begin
    let wi = (w0 + i) land (words - 1) in
    let x = t.occupied.(base + wi) in
    let x = if i = words then x land ((1 lsl low) - 1) else x in
    if x <> 0 then (wi * word_bits) + ctz32 x
    else scan_words t ~base ~w0 ~low (i + 1)
  end

(* -------------------------- wheel internals ----------------------- *)

let bucket_append t ~level ~slot ev =
  ev.next <- nil;
  if t.heads.(level).(slot) == nil then begin
    t.heads.(level).(slot) <- ev;
    mark t ~level ~slot
  end
  else t.tails.(level).(slot).next <- ev;
  t.tails.(level).(slot) <- ev

(* The first level whose span covers [delta] nanoseconds past the open
   slot, or the overflow heap beyond the top level.  Top-level rather
   than local to {!wheel_insert}, so that inserting allocates no
   closure. *)
let rec place t ev ~delta level =
  if level >= levels then begin
    ev.home <- home_overflow;
    Evheap.push t.overflow ev
  end
  else if delta < 1 lsl (slot_bits + (wheel_bits * (level + 1))) then begin
    let slot = (ev.at lsr (slot_bits + (wheel_bits * level))) land slot_mask in
    ev.home <- home_bucket;
    bucket_append t ~level ~slot ev
  end
  else place t ev ~delta (level + 1)

(* Place [ev] relative to the wheel position (the open slot), not the
   clock: after an overflow pop or an idle [run ~until] the clock can
   drift from [opened], and classifying against the position is what
   keeps every non-empty bucket strictly ahead of the wheel, so it
   cascades before its events come due.  Events for the open slot (or
   earlier) join [cur] directly. *)
let wheel_insert t ev =
  if ev.at lsr slot_bits <= t.opened then begin
    ev.home <- home_cur;
    Evheap.push t.cur ev
  end
  else place t ev ~delta:(ev.at - (t.opened lsl slot_bits)) 0

let bucket_take t ~level ~slot =
  let head = t.heads.(level).(slot) in
  if head != nil then begin
    t.heads.(level).(slot) <- nil;
    t.tails.(level).(slot) <- nil;
    unmark t ~level ~slot
  end;
  head

(* Tombstone compaction for bucketed events happens here: cancelled
   entries are dropped instead of re-inserted, so a cancel costs O(1) at
   cancel time and the record (its body already dropped by {!cancel}) is
   reclaimed the next time its bucket moves. *)
let cascade t ~level ~slot =
  let head = bucket_take t ~level ~slot in
  if head != nil then begin
    t.wheel_cascades <- t.wheel_cascades + 1;
    t.on_wheel_cascade ();
    let p = ref head in
    while !p != nil do
      let ev = !p in
      p := ev.next;
      ev.next <- nil;
      if ev.cancelled then discard t ev else wheel_insert t ev
    done
  end

let open_slot t pos =
  let head = bucket_take t ~level:0 ~slot:(pos land slot_mask) in
  let p = ref head in
  while !p != nil do
    let ev = !p in
    p := ev.next;
    ev.next <- nil;
    if ev.cancelled then discard t ev
    else begin
      ev.home <- home_cur;
      Evheap.push t.cur ev
    end
  done

let enter t pos =
  t.opened <- pos;
  if pos land ((1 lsl (3 * wheel_bits)) - 1) = 0 then
    cascade t ~level:3 ~slot:((pos lsr (3 * wheel_bits)) land slot_mask);
  if pos land ((1 lsl (2 * wheel_bits)) - 1) = 0 then
    cascade t ~level:2 ~slot:((pos lsr (2 * wheel_bits)) land slot_mask);
  if pos land slot_mask = 0 then
    cascade t ~level:1 ~slot:((pos lsr wheel_bits) land slot_mask);
  open_slot t pos

(* Drop tombstones sitting on top of a heap, leaving a live minimum (or
   an empty heap). *)
let drain_tombstones t h =
  let continue = ref true in
  while !continue do
    let top = Evheap.peek h in
    if top != nil && top.cancelled then discard t (Evheap.pop h)
    else continue := false
  done

(* Advance the wheel position until the open-slot heap holds a live
   event or the wheels are empty.  Each move goes straight to the next
   occupied bucket of the lowest non-empty level, but never past the
   next boundary of the level above it: a coarser bucket due at that
   boundary may cascade events in ahead of the target.  Every skipped
   position would have entered an empty slot and cascaded nothing, so
   the firing order and both counters are those of visiting every slot
   in turn. *)
let rec advance t =
  drain_tombstones t t.cur;
  if Evheap.is_empty t.cur then advance_from t 0

and advance_from t level =
  if level < levels then begin
    let shift = wheel_bits * level in
    let idx = t.opened lsr shift in
    let next = next_occupied t ~level ~from:((idx + 1) land slot_mask) in
    if next < 0 then advance_from t (level + 1)
    else begin
      let target = (idx + 1 + ((next - idx - 1) land slot_mask)) lsl shift in
      let boundary = ((idx lsr wheel_bits) + 1) lsl (shift + wheel_bits) in
      enter t (Int.min target boundary);
      advance t
    end
  end

(* The next live event, without removing it: the wheel candidate (after
   advancing) compared against the overflow heap by (at, seq) — an event
   scheduled beyond the horizon can come due before events bucketed
   later from a nearer position. *)
let peek_next t =
  advance t;
  drain_tombstones t t.overflow;
  let a = Evheap.peek t.cur and b = Evheap.peek t.overflow in
  if a == nil then b
  else if b == nil then a
  else if Evheap.less a b then a
  else b

(* ------------------------------ API ------------------------------- *)

let enqueue t ~guard ~at ~seq fn =
  let ev =
    { cancelled = false; consumed = false; at = Int.max at t.clock; seq; fn;
      next = nil; home = home_done; guard }
  in
  wheel_insert t ev;
  t.live <- t.live + 1;
  ev

let insert t ~guard ~at fn =
  t.seq <- t.seq + 1;
  enqueue t ~guard ~at ~seq:t.seq fn

let reserve t =
  t.seq <- t.seq + 1;
  t.seq

(* Every queue orders by (at, seq), not by arrival, so an event that
   enters late under an earlier seq takes the place it would have had. *)
let schedule_reserved t ~seq ~at fn = enqueue t ~guard:unguarded ~at ~seq fn

let schedule_at t ~at fn = insert t ~guard:unguarded ~at fn

let schedule t ~delay fn =
  insert t ~guard:unguarded ~at:(t.clock + Int.max 0 delay) fn

let schedule_guarded t ~guard ~delay fn =
  insert t ~guard ~at:(t.clock + Int.max 0 delay) fn

let cancel t id =
  if not id.cancelled then begin
    id.cancelled <- true;
    id.fn <- ignore;
    (* a consumed event already left the live count at firing time *)
    if not id.consumed then begin
      t.live <- t.live - 1;
      if id.home = home_cur then Evheap.note_dead t.cur
      else if id.home = home_overflow then Evheap.note_dead t.overflow
      (* bucketed: reclaimed when the bucket next moves *)
    end
  end

let pending t = t.live

let run_parked id =
  let fn = id.fn in
  id.fn <- ignore;
  fn ()

(* Remove and run [ev], the event {!peek_next} just returned: it is the
   top of the heap its [home] names. *)
let fire t ev =
  ignore (Evheap.pop (if ev.home = home_cur then t.cur else t.overflow));
  t.clock <- ev.at;
  t.live <- t.live - 1;
  t.processed <- t.processed + 1;
  ev.consumed <- true;
  ev.home <- home_done;
  if ev.guard ev then begin
    let fn = ev.fn in
    ev.fn <- ignore;
    t.firing <- ev.seq;
    match fn () with
    | () -> t.firing <- max_int
    | exception e ->
      t.firing <- max_int;
      raise e
  end

let step t =
  let ev = peek_next t in
  if ev == nil then false
  else begin
    fire t ev;
    true
  end

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    let ev = peek_next t in
    if ev == nil then continue := false
    else
      match until with
      | Some u when ev.at > u ->
        t.clock <- Int.max t.clock u;
        continue := false
      | _ ->
        fire t ev;
        decr budget
  done;
  match until with
  | Some u when peek_next t == nil -> t.clock <- Int.max t.clock u
  | _ -> ()

let run_for t d = run t ~until:(t.clock + d)
