module Interval_buf = Tcpfo_util.Interval_buf
module Seq32 = Tcpfo_util.Seq32

let base100 () = Interval_buf.create ~base:(Seq32.of_int 100)

let test_in_order () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "abc";
  Testutil.check_int "contig" 3 (Interval_buf.contiguous_length b);
  Testutil.check_string "pop" "abc" (Interval_buf.pop b ~max_len:10);
  Testutil.check_int "base moved" 103 (Seq32.to_int (Interval_buf.base b))

let test_gap_then_fill () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 105) "xyz";
  Testutil.check_int "gap blocks" 0 (Interval_buf.contiguous_length b);
  Testutil.check_int "buffered" 3 (Interval_buf.total_buffered b);
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "abcde";
  Testutil.check_int "filled" 8 (Interval_buf.contiguous_length b);
  Testutil.check_string "pop all" "abcdexyz" (Interval_buf.pop b ~max_len:100)

let test_overlap_first_write_wins () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "AAAA";
  Interval_buf.insert b ~seq:(Seq32.of_int 102) "bbbb";
  Testutil.check_string "overlap" "AAAAbb" (Interval_buf.pop b ~max_len:100)

let test_clip_below_base () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 95) "0123456789";
  (* bytes 95..99 clipped; 100..104 = "56789" *)
  Testutil.check_string "clipped" "56789" (Interval_buf.pop b ~max_len:100)

let test_drop () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "abcdef";
  Interval_buf.drop b ~len:4;
  Testutil.check_string "rest" "ef" (Interval_buf.pop b ~max_len:100)

let test_has_byte () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 105) "xy";
  Testutil.check_bool "at 105" true (Interval_buf.has_byte b (Seq32.of_int 105));
  Testutil.check_bool "at 107" false (Interval_buf.has_byte b (Seq32.of_int 107));
  Testutil.check_bool "below base" false (Interval_buf.has_byte b (Seq32.of_int 99))

let test_wraparound () =
  let near_top = Seq32.of_int 0xFFFF_FFFD in
  let b = Interval_buf.create ~base:near_top in
  Interval_buf.insert b ~seq:near_top "012345";
  Testutil.check_string "across wrap" "012345" (Interval_buf.pop b ~max_len:100);
  Testutil.check_int "base wrapped" 3 (Seq32.to_int (Interval_buf.base b))

(* Property: inserting arbitrary (possibly overlapping, out of order)
   chunks of one master string at their true offsets always reassembles to
   a prefix of the master string, and reassembles completely if the chunks
   cover it. *)
let prop_reassembly =
  let gen =
    QCheck.Gen.(
      let* len = int_range 1 400 in
      let master = String.init len (fun i -> Char.chr (65 + (i mod 26))) in
      let* n = int_range 1 30 in
      let* chunks =
        list_repeat n
          (let* off = int_range 0 (len - 1) in
           let* clen = int_range 1 (len - off) in
           return (off, clen))
      in
      return (master, chunks))
  in
  QCheck.Test.make ~name:"reassembly yields prefix of master" ~count:300
    (QCheck.make gen) (fun (master, chunks) ->
      let base = Seq32.of_int 5000 in
      let b = Interval_buf.create ~base in
      List.iter
        (fun (off, clen) ->
          Interval_buf.insert b ~seq:(Seq32.add base off)
            (String.sub master off clen))
        chunks;
      let out = Interval_buf.pop b ~max_len:max_int in
      String.length out <= String.length master
      && String.sub master 0 (String.length out) = out)

let prop_full_cover =
  let gen =
    QCheck.Gen.(
      let* len = int_range 1 300 in
      let master = String.init len (fun i -> Char.chr (48 + (i mod 10))) in
      (* random permutation of consecutive chunks *)
      let* sizes =
        let rec cut acc remaining =
          if remaining = 0 then return (List.rev acc)
          else
            let* c = int_range 1 remaining in
            cut (c :: acc) (remaining - c)
        in
        cut [] len
      in
      let offs =
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) sz -> (off + sz, (off, sz) :: acc))
                (0, []) sizes))
      in
      let* shuffled = shuffle_l offs in
      return (master, shuffled))
  in
  QCheck.Test.make ~name:"covering chunks reassemble exactly" ~count:300
    (QCheck.make gen) (fun (master, chunks) ->
      let base = Seq32.of_int 0xFFFF_FF00 (* crosses the wrap *) in
      let b = Interval_buf.create ~base in
      List.iter
        (fun (off, clen) ->
          Interval_buf.insert b ~seq:(Seq32.add base off)
            (String.sub master off clen))
        chunks;
      Interval_buf.pop b ~max_len:max_int = master)

(* Whole inserted strings come back physically: aligned inserts, in
   order or not, are popped without a copy. *)
let test_zero_copy_pop () =
  let b = base100 () in
  let parts = [ "abc"; "defgh"; "ij"; String.make 3000 'k' ] in
  let offs = [ 0; 3; 8; 10 ] in
  List.iter2
    (fun off p -> Interval_buf.insert b ~seq:(Seq32.of_int (100 + off)) p)
    (List.rev offs) (List.rev parts);
  List.iter
    (fun p ->
      let got = Interval_buf.pop b ~max_len:(String.length p) in
      Testutil.check_bool ("physically " ^ String.sub p 0 1) true (got == p))
    parts;
  Testutil.check_bool "drained" true (Interval_buf.is_empty b)

(* Random interleavings of every operation against a naive model: a
   table from absolute position to byte, plus a base.  Inserts carry a
   tag that changes their bytes, so overlapping writes disagree and the
   model pins first-write-wins; drops may run past a gap. *)
let prop_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun off len tag -> `Insert (off, len, tag))
              (int_range (-20) 200) (int_range 0 70) (int_range 0 3) );
          (1, map (fun n -> `Drop n) (int_range 0 60));
          ( 2,
            map (fun n -> `Pop n)
              (frequency [ (5, int_range 0 80); (1, return max_int) ]) );
          (1, map (fun n -> `Peek n) (int_range 0 80));
          (1, map (fun p -> `Has_byte p) (int_range (-5) 250));
        ])
  in
  let origin = Seq32.of_int 0xFFFF_FF00 (* crosses the wrap *) in
  let byte tag pos = Char.chr (97 + (((tag * 7) + pos) mod 26)) in
  QCheck.Test.make ~name:"all operations match a byte table"
    ~count:300
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let b = Interval_buf.create ~base:origin in
      let model = Hashtbl.create 64 in
      let base = ref 0 in
      let at pos = Seq32.add origin pos in
      let run_from pos =
        let rec go p = if Hashtbl.mem model p then go (p + 1) else p - pos in
        go pos
      in
      let take n =
        let k = min n (run_from !base) in
        String.init k (fun j -> Hashtbl.find model (!base + j))
      in
      let advance n =
        for p = !base to !base + n - 1 do
          Hashtbl.remove model p
        done;
        base := !base + n
      in
      (* sorted (start, bytes) runs of the model *)
      let runs () =
        let ps = List.sort compare (Hashtbl.fold (fun p _ l -> p :: l) model []) in
        let rec group acc = function
          | [] -> List.rev acc
          | p :: rest ->
            let n = run_from p in
            let s = String.init n (fun j -> Hashtbl.find model (p + j)) in
            group ((at p, s) :: acc) (List.filteri (fun i _ -> i >= n - 1) rest)
        in
        group [] ps
      in
      let check_all () =
        Interval_buf.contiguous_length b = run_from !base
        && Interval_buf.total_buffered b = Hashtbl.length model
        && Interval_buf.is_empty b = (Hashtbl.length model = 0)
        && Seq32.equal (Interval_buf.base b) (at !base)
        && Interval_buf.islands b = runs ()
        && Interval_buf.spans b
           = List.map (fun (s, d) -> (s, String.length d)) (runs ())
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | `Insert (off, len, tag) ->
              let pos = !base + off in
              let data = String.init len (fun j -> byte tag (pos + j)) in
              Interval_buf.insert b ~seq:(at pos) data;
              for j = 0 to len - 1 do
                let p = pos + j in
                if p >= !base && not (Hashtbl.mem model p) then
                  Hashtbl.replace model p data.[j]
              done;
              true
            | `Drop n ->
              Interval_buf.drop b ~len:n;
              advance n;
              true
            | `Pop n ->
              let want = take n in
              advance (String.length want);
              Interval_buf.pop b ~max_len:n = want
            | `Peek n -> Interval_buf.peek b ~max_len:n = take n
            | `Has_byte p ->
              Interval_buf.has_byte b (at (!base + p))
              = (p >= 0 && Hashtbl.mem model (!base + p))
          in
          ok && check_all ())
        ops)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "in-order insert/pop" `Quick test_in_order;
    Alcotest.test_case "gap blocks, fill releases" `Quick test_gap_then_fill;
    Alcotest.test_case "overlap: first write wins" `Quick
      test_overlap_first_write_wins;
    Alcotest.test_case "bytes below base are clipped" `Quick
      test_clip_below_base;
    Alcotest.test_case "drop advances base" `Quick test_drop;
    Alcotest.test_case "has_byte island query" `Quick test_has_byte;
    Alcotest.test_case "sequence wraparound" `Quick test_wraparound;
    Alcotest.test_case "whole inserts pop without a copy" `Quick
      test_zero_copy_pop;
    q prop_reassembly;
    q prop_full_cover;
    q prop_model;
  ]
