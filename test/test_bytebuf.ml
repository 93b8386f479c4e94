module Bytebuf = Tcpfo_util.Bytebuf

let test_push_capacity () =
  let b = Bytebuf.create ~capacity:10 in
  Testutil.check_int "accept all" 6 (Bytebuf.push b "abcdef");
  Testutil.check_int "partial" 4 (Bytebuf.push b "ghijkl");
  Testutil.check_int "full" 0 (Bytebuf.push b "x");
  Testutil.check_int "len" 10 (Bytebuf.length b)

let test_read_offsets () =
  let b = Bytebuf.create ~capacity:100 in
  ignore (Bytebuf.push b "hello");
  ignore (Bytebuf.push b " world");
  Testutil.check_string "across chunks" "lo wo" (Bytebuf.read b ~pos:3 ~len:5);
  Testutil.check_string "clip at end" "rld" (Bytebuf.read b ~pos:8 ~len:50)

let test_release () =
  let b = Bytebuf.create ~capacity:10 in
  ignore (Bytebuf.push b "0123456789");
  Bytebuf.release_to b ~pos:4;
  Testutil.check_int "start" 4 (Bytebuf.start_offset b);
  Testutil.check_int "free" 4 (Bytebuf.free b);
  Testutil.check_string "read after release" "4567" (Bytebuf.read b ~pos:4 ~len:4);
  Testutil.check_int "accept again" 4 (Bytebuf.push b "abcdef");
  Testutil.check_string "appended" "89ab" (Bytebuf.read b ~pos:8 ~len:4)

let test_release_mid_chunk () =
  let b = Bytebuf.create ~capacity:100 in
  ignore (Bytebuf.push b "abcdefgh");
  Bytebuf.release_to b ~pos:3;
  Bytebuf.release_to b ~pos:5;
  Testutil.check_string "tail" "fgh" (Bytebuf.read b ~pos:5 ~len:10);
  Bytebuf.release_to b ~pos:2 (* no-op backwards *);
  Testutil.check_int "start stable" 5 (Bytebuf.start_offset b)

let prop_fifo =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (string_size ~gen:(char_range 'a' 'z') (int_range 0 50)))
  in
  QCheck.Test.make ~name:"pushed bytes read back in order" ~count:200
    (QCheck.make gen) (fun pieces ->
      let b = Bytebuf.create ~capacity:10_000 in
      let expected = Buffer.create 64 in
      List.iter
        (fun s ->
          let n = Bytebuf.push b s in
          Buffer.add_string expected (String.sub s 0 n))
        pieces;
      let total = Bytebuf.length b in
      Bytebuf.read b ~pos:0 ~len:total = Buffer.contents expected)

let prop_release_read_agree =
  let gen =
    QCheck.Gen.(
      let* pieces =
        list_size (int_range 1 10)
          (string_size ~gen:(char_range 'A' 'Z') (int_range 1 40))
      in
      let total = List.fold_left (fun a s -> a + String.length s) 0 pieces in
      let* rel = int_range 0 total in
      return (pieces, rel))
  in
  QCheck.Test.make ~name:"read after release matches suffix" ~count:200
    (QCheck.make gen) (fun (pieces, rel) ->
      let b = Bytebuf.create ~capacity:10_000 in
      List.iter (fun s -> ignore (Bytebuf.push b s)) pieces;
      let all = String.concat "" pieces in
      Bytebuf.release_to b ~pos:rel;
      let remaining = String.length all - rel in
      Bytebuf.read b ~pos:rel ~len:remaining
      = String.sub all rel remaining)

(* Locks in O(1)-amortized push/read/release.  The former chunk-list
   representation normalized (re-concatenated) the whole live window on
   every read, so this sliding-window pattern — exactly what a TCP send
   buffer does under a steady stream — was quadratic and took minutes at
   this size.  The ring representation runs it in well under a second;
   the bound is deliberately generous so slow CI machines never flake. *)
let test_sliding_window_amortized () =
  let iters = 50_000 in
  let window = 1 lsl 16 in
  let chunk = String.make 64 'p' in
  let b = Bytebuf.create ~capacity:window in
  let t0 = Sys.time () in
  let pushed = ref 0 in
  for _ = 1 to iters do
    pushed := !pushed + Bytebuf.push b chunk;
    let e = Bytebuf.end_offset b in
    ignore (Bytebuf.read b ~pos:(max (Bytebuf.start_offset b) (e - 32)) ~len:32);
    if Bytebuf.length b > window / 2 then
      Bytebuf.release_to b ~pos:(e - (window / 4))
  done;
  let dt = Sys.time () -. t0 in
  Testutil.check_int "offsets conserved" !pushed (Bytebuf.end_offset b);
  Alcotest.(check bool)
    (Printf.sprintf "sliding window stayed fast (%.2fs cpu)" dt)
    true (dt < 5.0)

(* Many push/release cycles over a tiny buffer force the ring head to wrap
   hundreds of times; the reassembled stream must equal what was pushed. *)
let test_wrap_stream_intact () =
  let b = Bytebuf.create ~capacity:100 in
  let sent = Buffer.create 4096 in
  let got = Buffer.create 4096 in
  let off = ref 0 in
  for i = 0 to 999 do
    let s =
      String.init (1 + (i mod 37)) (fun k -> Char.chr ((i + (3 * k)) land 0xFF))
    in
    let n = Bytebuf.push b s in
    Buffer.add_string sent (String.sub s 0 n);
    let len = (Bytebuf.length b / 2) + 1 in
    let piece = Bytebuf.read b ~pos:!off ~len in
    Buffer.add_string got piece;
    off := !off + String.length piece;
    Bytebuf.release_to b ~pos:!off
  done;
  Buffer.add_string got (Bytebuf.read b ~pos:!off ~len:(Bytebuf.length b));
  Testutil.check_string "wrapped stream intact" (Buffer.contents sent)
    (Buffer.contents got)

(* Model test.  The physical ring starts at zero bytes and grows on
   demand, so growing out of a wrapped window — head near the end of the
   ring, tail wrapped to its front — happens on nearly every connection.
   Random interleavings of every mutator are checked against a plain
   string model of the held window. *)
type op =
  | Push of string
  | Read of int * int (* position within the held window, length *)
  | Release of int (* target offset relative to the window start *)
  | Rebuild of int (* [of_string] at this absolute start offset *)

let show_op = function
  | Push s -> Printf.sprintf "push %d" (String.length s)
  | Read (p, l) -> Printf.sprintf "read +%d %d" p l
  | Release d -> Printf.sprintf "release %+d" d
  | Rebuild o -> Printf.sprintf "of_string @%d" o

let prop_model =
  let gen =
    QCheck.Gen.(
      let op =
        frequency
          [
            ( 5,
              map
                (fun s -> Push s)
                (string_size ~gen:printable (int_range 0 320)) );
            ( 3,
              map2 (fun p l -> Read (p, l)) (int_range 0 320) (int_range 0 320)
            );
            (3, map (fun d -> Release d) (int_range (-20) 340));
            (1, map (fun o -> Rebuild o) (int_range 0 1000));
          ]
      in
      pair (int_range 1 300) (list_size (int_range 1 60) op))
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %d: %s" cap
      (String.concat "; " (List.map show_op ops))
  in
  QCheck.Test.make ~name:"ring matches string model" ~count:500
    (QCheck.make ~print gen) (fun (capacity, ops) ->
      let b = ref (Bytebuf.create ~capacity) in
      (* model: the held bytes and the absolute offset of the first one *)
      let held = ref "" and start = ref 0 in
      let agree () =
        Bytebuf.start_offset !b = !start
        && Bytebuf.length !b = String.length !held
        && Bytebuf.end_offset !b = !start + String.length !held
        && Bytebuf.free !b = capacity - String.length !held
        && Bytebuf.capacity !b = capacity
        && Bytebuf.is_empty !b = (!held = "")
        && Bytebuf.read !b ~pos:!start ~len:capacity = !held
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push s ->
              let room = capacity - String.length !held in
              let want = Int.min (String.length s) room in
              held := !held ^ String.sub s 0 want;
              Bytebuf.push !b s = want
            | Read (p, len) ->
              let n = String.length !held in
              let p = if n = 0 then 0 else p mod (n + 1) in
              let got = Bytebuf.read !b ~pos:(!start + p) ~len in
              got = String.sub !held p (Int.min len (n - p))
            | Release d ->
              let n = String.length !held in
              let drop = Int.max 0 (Int.min d n) in
              Bytebuf.release_to !b ~pos:(!start + d);
              held := String.sub !held drop (n - drop);
              start := !start + drop;
              true
            | Rebuild o ->
              b := Bytebuf.of_string ~capacity ~start_offset:o !held;
              start := o;
              true
          in
          ok && agree ())
        ops)

(* A connection that has not sent holds no ring: the buffer is a
   fixed-size record however large its logical capacity, and a small
   push grows the ring to the bytes pushed, not to a send buffer. *)
let test_footprint () =
  let b = Bytebuf.create ~capacity:65536 in
  let words () = Obj.reachable_words (Obj.repr b) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh buffer is %d words" (words ()))
    true
    (words () <= 8);
  Testutil.check_int "push 16" 16 (Bytebuf.push b (String.make 16 'x'));
  Alcotest.(check bool)
    (Printf.sprintf "after a 16 B push: %d words" (words ()))
    true
    (words () <= 12);
  Testutil.check_int "logical capacity unchanged" 65536 (Bytebuf.capacity b);
  Testutil.check_int "free is logical" (65536 - 16) (Bytebuf.free b)

(* [read] and [release_to] before any push must not divide by the empty
   ring's size. *)
let test_empty_ring () =
  let b = Bytebuf.create ~capacity:100 in
  Testutil.check_string "read nothing" "" (Bytebuf.read b ~pos:0 ~len:10);
  Bytebuf.release_to b ~pos:5;
  Testutil.check_int "release clipped" 0 (Bytebuf.start_offset b);
  Testutil.check_string "read past end" "" (Bytebuf.read b ~pos:7 ~len:3);
  let r = Bytebuf.of_string ~capacity:100 ~start_offset:42 "" in
  Bytebuf.release_to r ~pos:50;
  Testutil.check_int "rebuilt empty start" 42 (Bytebuf.start_offset r);
  Testutil.check_string "rebuilt empty read" "" (Bytebuf.read r ~pos:42 ~len:1);
  Testutil.check_int "push after release" 3 (Bytebuf.push r "abc");
  Testutil.check_string "then read" "abc" (Bytebuf.read r ~pos:42 ~len:3);
  let z = Bytebuf.create ~capacity:0 in
  Testutil.check_int "zero capacity" 0 (Bytebuf.push z "a");
  Bytebuf.release_to z ~pos:1;
  Testutil.check_string "zero capacity read" "" (Bytebuf.read z ~pos:0 ~len:1)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "capacity enforced" `Quick test_push_capacity;
    Alcotest.test_case "read spans chunks" `Quick test_read_offsets;
    Alcotest.test_case "release frees space" `Quick test_release;
    Alcotest.test_case "release mid-chunk" `Quick test_release_mid_chunk;
    Alcotest.test_case "sliding window amortized O(1)" `Quick
      test_sliding_window_amortized;
    Alcotest.test_case "ring wrap keeps stream intact" `Quick
      test_wrap_stream_intact;
    Alcotest.test_case "footprint sized by content" `Quick test_footprint;
    Alcotest.test_case "empty ring read and release" `Quick test_empty_ring;
    q prop_fifo;
    q prop_release_read_agree;
    q prop_model;
  ]
