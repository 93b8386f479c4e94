module Heap = Tcpfo_util.Heap

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~prio:p p) [ 5; 1; 4; 2; 3 ];
  let out = List.init 5 (fun _ -> fst (Option.get (Heap.pop h))) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] out

let test_stable_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~prio:7 (i, v)) [ "a"; "b"; "c"; "d" ];
  let out =
    List.init 4 (fun _ -> snd (snd (Option.get (Heap.pop h))))
  in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c"; "d" ] out

let test_empty () =
  let h : int Heap.t = Heap.create () in
  Testutil.check_bool "empty" true (Heap.is_empty h);
  Testutil.check_bool "pop none" true (Heap.pop h = None);
  Testutil.check_bool "peek none" true (Heap.peek_prio h = None)

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h ~prio:10 "x";
  Heap.push h ~prio:5 "y";
  Testutil.check_string "min" "y" (snd (Option.get (Heap.pop h)));
  Heap.push h ~prio:1 "z";
  Testutil.check_string "new min" "z" (snd (Option.get (Heap.pop h)));
  Testutil.check_string "rest" "x" (snd (Option.get (Heap.pop h)))

let prop_heap_sort =
  QCheck.Test.make ~name:"pops are sorted & stable" ~count:200
    QCheck.(list (int_bound 1000))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~prio:p (p, i)) prios;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let out = drain [] in
      (* non-decreasing priorities, ties in insertion order *)
      let rec ok = function
        | (p1, i1) :: ((p2, i2) :: _ as rest) ->
          (p1 < p2 || (p1 = p2 && i1 < i2)) && ok rest
        | _ -> true
      in
      List.length out = List.length prios && ok out)

let suite =
  [
    Alcotest.test_case "min-heap ordering" `Quick test_ordering;
    Alcotest.test_case "stable on equal priorities" `Quick test_stable_ties;
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_heap_sort;
  ]
