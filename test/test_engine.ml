module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time

let test_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(Time.us 30) (fun () -> log := 30 :: !log));
  ignore (Engine.schedule e ~delay:(Time.us 10) (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~delay:(Time.us 20) (fun () -> log := 20 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(Time.us 7) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule e ~delay:(Time.ms 5) (fun () -> seen := Engine.now e));
  Engine.run e;
  Testutil.check_int "now at fire" (Time.ms 5) !seen

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:(Time.us 1) (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Testutil.check_bool "cancelled" false !fired;
  Testutil.check_int "pending" 0 (Engine.pending e)

let test_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:(Time.us 10) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~delay:(Time.us 5) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Testutil.check_int "time" (Time.us 15) (Engine.now e)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:(Time.us 10) (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:(Time.us 100) (fun () -> incr fired));
  Engine.run e ~until:(Time.us 50);
  Testutil.check_int "only first" 1 !fired;
  Testutil.check_int "one pending" 1 (Engine.pending e);
  Engine.run e;
  Testutil.check_int "both" 2 !fired

let test_run_until_idle_advances_clock () =
  let e = Engine.create () in
  Engine.run e ~until:(Time.ms 3);
  Testutil.check_int "clock at until" (Time.ms 3) (Engine.now e)

(* ------------------ wheel vs an obvious reference ------------------ *)

(* The oracle: every pending event in one list kept sorted by
   (time, scheduling order), O(n) per operation.  The wheel must fire
   exactly what this fires, at the same instants. *)
module Reference = struct
  type event = { at : Time.t; seq : int; fn : unit -> unit }

  type t = {
    mutable clock : Time.t;
    mutable seq : int;
    mutable queue : event list;
    mutable processed : int;
  }

  let create () = { clock = 0; seq = 0; queue = []; processed = 0 }

  let schedule_at t ~at fn =
    let at = max at t.clock in
    t.seq <- t.seq + 1;
    let ev = { at; seq = t.seq; fn } in
    (* the newest event sorts after every event due at or before it *)
    let rec insert = function
      | e :: rest when e.at <= at -> e :: insert rest
      | l -> ev :: l
    in
    t.queue <- insert t.queue;
    ev

  let schedule t ~delay fn = schedule_at t ~at:(t.clock + max 0 delay) fn
  let cancel t ev = t.queue <- List.filter (fun e -> e != ev) t.queue

  let rec run ?until t =
    match t.queue with
    | ev :: rest when (match until with Some u -> ev.at <= u | None -> true)
      ->
      t.queue <- rest;
      t.clock <- ev.at;
      t.processed <- t.processed + 1;
      ev.fn ();
      run ?until t
    | _ -> Option.iter (fun u -> t.clock <- max t.clock u) until
end

(* What a scenario may do to a scheduler, so one scenario drives both. *)
type 'id ops = {
  schedule : delay:Time.t -> (unit -> unit) -> 'id;
  schedule_at : at:Time.t -> (unit -> unit) -> 'id;
  cancel : 'id -> unit;
  run_for : Time.t -> unit;
  now : unit -> Time.t;
}

type scenario = { play : 'id. 'id ops -> (int -> unit) -> unit }

(* (firing log, final clock, processed, pending) on the wheel, plus the
   engine itself for counter checks *)
let on_engine scenario =
  let e = Engine.create () in
  let log = ref [] in
  scenario.play
    { schedule = (fun ~delay fn -> Engine.schedule e ~delay fn);
      schedule_at = (fun ~at fn -> Engine.schedule_at e ~at fn);
      cancel = Engine.cancel e; run_for = Engine.run_for e;
      now = (fun () -> Engine.now e) }
    (fun tag -> log := (Engine.now e, tag) :: !log);
  Engine.run e;
  ((List.rev !log, Engine.now e, Engine.processed e, Engine.pending e), e)

let on_reference scenario =
  let r = Reference.create () in
  let log = ref [] in
  scenario.play
    { schedule = (fun ~delay fn -> Reference.schedule r ~delay fn);
      schedule_at = (fun ~at fn -> Reference.schedule_at r ~at fn);
      cancel = Reference.cancel r;
      run_for = (fun d -> Reference.run r ~until:(r.clock + d));
      now = (fun () -> r.clock) }
    (fun tag -> log := (r.clock, tag) :: !log);
  Reference.run r;
  (List.rev !log, r.clock, r.processed, List.length r.queue)

let matches_reference name scenario =
  let (lw, nw, pw, qw), e = on_engine scenario in
  let lr, nr, pr, qr = on_reference scenario in
  Alcotest.(check (list (pair int int))) (name ^ ": log") lr lw;
  Testutil.check_int (name ^ ": clock") nr nw;
  Testutil.check_int (name ^ ": processed") pr pw;
  Testutil.check_int (name ^ ": pending") qr qw;
  e

(* The classification bug class this guards: an event scheduled while
   far in the future reaches the open slot via cascades, while a second
   event for the same instant is scheduled directly once the wheel is
   close — equal times must still fire in scheduling order. *)
let test_wheel_equal_time_across_paths () =
  ignore
    (matches_reference "cross-path tie"
       { play = (fun ops record ->
             let at = Time.ms 5 in
             ignore (ops.schedule_at ~at (fun () -> record 1));
             ignore
               (ops.schedule_at ~at:(Time.ms 4) (fun () ->
                    ignore (ops.schedule_at ~at (fun () -> record 2))));
             ignore (ops.schedule_at ~at:(Time.us 1) (fun () -> record 0)))
       })

let test_wheel_spans () =
  ignore
    (matches_reference "all levels + overflow"
       { play = (fun ops record ->
             (* one event per wheel level plus one beyond the ~73 min
                horizon *)
             List.iteri
               (fun i d -> ignore (ops.schedule ~delay:d (fun () -> record i)))
               [
                 Time.ns 100; (* open slot *)
                 Time.us 50; (* level 0 *)
                 Time.ms 3; (* level 1 *)
                 Time.ms 900; (* level 2 *)
                 Time.sec 120.; (* level 3 *)
                 Time.sec 7200.; (* overflow heap *)
               ]) })

let test_wheel_idle_gap () =
  ignore
    (matches_reference "idle gap then burst"
       { play = (fun ops record ->
             ignore (ops.schedule ~delay:(Time.us 2) (fun () -> record 0));
             ignore
               (ops.schedule ~delay:(Time.sec 60.) (fun () ->
                    record 1;
                    for i = 2 to 6 do
                      ignore
                        (ops.schedule ~delay:(Time.us i) (fun () -> record i))
                    done))) })

(* Random schedule/cancel/run-until programs, on the wheel and on the
   reference; handlers re-schedule children and cancel earlier ids, so
   insertions happen at many wheel positions.  Delays mix every level
   of the hierarchy including the overflow horizon. *)
let prop_wheel_matches_reference =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map2
              (fun scale x -> `Schedule (max 1 (x * scale)))
              (oneofl [ 1; 700; 40_000; 9_000_000; 2_000_000_000;
                        300_000_000_000 ])
              (int_range 1 900) );
          (2, map (fun i -> `Cancel i) (int_range 0 200));
          (1, map (fun d -> `Run_for (max 1 d)) (int_range 1 50_000_000));
        ])
  in
  QCheck.Test.make ~name:"wheel fires identically to reference" ~count:60
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (int_range 5 60) op_gen))
    (fun ops_list ->
      let program =
        { play = (fun ops record ->
              let ids = ref [||] in
              let tag = ref 0 in
              let rec handler n () =
                record n;
                (* deterministic in-handler activity driven by the tag *)
                if n mod 3 = 0 then remember (n * 37 mod 2_000_000) (n + 1000);
                if n mod 5 = 0 && Array.length !ids > 0 then
                  ops.cancel !ids.(n mod Array.length !ids)
              and remember delay n =
                let id = ops.schedule ~delay (fun () -> handler n ()) in
                ids := Array.append !ids [| id |]
              in
              List.iter
                (fun op ->
                  incr tag;
                  match op with
                  | `Schedule d -> remember d !tag
                  | `Cancel i ->
                    if Array.length !ids > 0 then
                      ops.cancel !ids.(i mod Array.length !ids)
                  | `Run_for d -> ops.run_for d)
                ops_list) }
      in
      fst (on_engine program) = on_reference program)

(* A sparse schedule: events 100 us to 3 s apart, so the wheel idles
   across level-1 (262 us) and level-2 (67 ms) boundaries and crosses a
   level-3 (17 s) one, while handlers cancel events still sitting in
   buckets.  This is the regime where the occupancy bitmaps skip runs
   of empty slots; the counters are pinned to what visiting every slot
   in turn produces. *)
let sparse_program =
  { play = (fun ops record ->
        let state = ref 12345 in
        let rand n =
          state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
          (!state lsr 8) mod n
        in
        let delay () =
          match rand 4 with
          | 0 -> Time.us (100 + rand 400)
          | 1 -> Time.ms (1 + rand 60)
          | 2 -> Time.ms (70 + rand 900)
          | _ -> Time.ms (1000 + rand 2000)
        in
        let ids = ref [||] in
        let count = ref 0 in
        let rec spawn () =
          incr count;
          let n = !count in
          let id =
            ops.schedule ~delay:(delay ()) (fun () ->
                record n;
                if !count < 300 then begin
                  spawn ();
                  if rand 3 = 0 then spawn ();
                  if rand 4 = 0 then ops.cancel !ids.(rand (Array.length !ids))
                end)
          in
          ids := Array.append !ids [| id |]
        in
        for _ = 1 to 4 do
          spawn ()
        done;
        ops.run_for (Time.ms 70);
        (* an idle stretch past a level-3 boundary, then a late burst *)
        ignore
          (ops.schedule ~delay:(Time.sec 20.) (fun () ->
               record 0;
               for i = 1 to 8 do
                 ignore
                   (ops.schedule ~delay:(i * Time.ms 40) (fun () ->
                        record (-i)))
               done))) }

let test_wheel_sparse () =
  let e = matches_reference "sparse" sparse_program in
  Testutil.check_int "cancelled_skips" 17 (Engine.cancelled_skips e);
  Testutil.check_int "wheel_cascades" 328 (Engine.wheel_cascades e)

let test_wheel_counters () =
  let e = Engine.create () in
  let skips = ref 0 and cascades = ref 0 in
  Engine.set_stat_hooks e
    ~cancelled_skip:(fun () -> incr skips)
    ~wheel_cascade:(fun () -> incr cascades);
  let id = Engine.schedule e ~delay:(Time.ms 3) ignore in
  Engine.cancel e id;
  ignore (Engine.schedule e ~delay:(Time.ms 4) ignore);
  Engine.run e;
  Testutil.check_int "skips counted" (Engine.cancelled_skips e) !skips;
  Testutil.check_int "cascades counted" (Engine.wheel_cascades e) !cascades;
  Testutil.check_bool "cascaded at least once" true (!cascades >= 1);
  Testutil.check_bool "skipped the corpse" true (!skips >= 1)

(* Cancelling drops the body at once: a value reachable only from a
   cancelled event's closure is collectable while the tombstone still
   waits in a coarse wheel bucket that has not cascaded. *)
let[@inline never] schedule_capturing e finalised =
  let v = Bytes.create 64 in
  Gc.finalise (fun _ -> finalised := true) v;
  Engine.schedule e ~delay:(Time.sec 5.0) (fun () -> ignore (Bytes.length v))

let test_cancel_drops_body () =
  let e = Engine.create () in
  let finalised = ref false in
  Engine.cancel e (schedule_capturing e finalised);
  Gc.full_major ();
  Testutil.check_bool "captured value finalised" true !finalised;
  Testutil.check_int "tombstone not yet swept" 0 (Engine.cancelled_skips e);
  Engine.run e;
  Testutil.check_int "swept when its bucket cascades" 1
    (Engine.cancelled_skips e);
  Testutil.check_int "nothing ran" 0 (Engine.processed e)

(* ------------------------- reserved seqs ------------------------- *)

(* An event inserted late under a reserved seq fires after the
   same-instant events scheduled before the reservation and before
   those scheduled after it, wherever the wheel holds them when it
   enters: [at] near (the open slot), a few ms off (level 1-2) or far
   (level 3) when it is inserted, early or from an event at [at]
   itself. *)
let test_reserved_seq_keeps_its_place () =
  List.iter
    (fun (name, at, insert_at) ->
      let e = Engine.create () in
      let log = ref [] in
      let note tag () = log := tag :: !log in
      let seq = ref 0 in
      let insert () =
        ignore (Engine.schedule_reserved e ~seq:!seq ~at (note "reserved"))
      in
      (* an inserting event goes first, so at [at] itself it still runs
         before the reserved seq *)
      Option.iter (fun t -> ignore (Engine.schedule_at e ~at:t insert))
        insert_at;
      ignore (Engine.schedule_at e ~at (note "a"));
      ignore (Engine.schedule_at e ~at (note "b"));
      seq := Engine.reserve e;
      ignore (Engine.schedule_at e ~at (note "c"));
      ignore (Engine.schedule_at e ~at (note "d"));
      if Option.is_none insert_at then insert ();
      Engine.run e;
      Alcotest.(check (list string))
        name [ "a"; "b"; "reserved"; "c"; "d" ] (List.rev !log))
    [ ("inserted at once, near", Time.us 3, None);
      ("inserted at once, far", Time.sec 20.0, None);
      ("inserted later, from level 2", Time.ms 40, Some (Time.ms 39));
      ("inserted from a level-3 wait", Time.sec 20.0, Some (Time.sec 19.0));
      ("inserted at the instant itself", Time.ms 2, Some (Time.ms 2)) ]

let test_firing_seq () =
  let e = Engine.create () in
  Testutil.check_int "before anything ran" max_int (Engine.firing_seq e);
  let seen = ref [] in
  let note () = seen := Engine.firing_seq e :: !seen in
  ignore (Engine.schedule e ~delay:(Time.us 5) note);
  let r = Engine.reserve e in
  ignore (Engine.schedule e ~delay:(Time.us 5) note);
  Testutil.check_bool "step ran one" true (Engine.step e);
  Testutil.check_int "after step" max_int (Engine.firing_seq e);
  Engine.run e;
  Testutil.check_int "after run" max_int (Engine.firing_seq e);
  (match List.rev !seen with
  | [ before; after ] ->
    Testutil.check_bool "scheduled before the reservation" true (before < r);
    Testutil.check_bool "scheduled after it" true (after > r)
  | _ -> Alcotest.fail "two events should have fired");
  ignore (Engine.schedule e ~delay:0 (fun () -> failwith "boom"));
  (try Engine.run e with Failure _ -> ());
  Testutil.check_int "after a body raised" max_int (Engine.firing_seq e)

let suite =
  [
    Alcotest.test_case "time ordering" `Quick test_fires_in_time_order;
    Alcotest.test_case "FIFO at equal time" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances to event" `Quick test_clock_advances;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "nested scheduling" `Quick test_nested_schedule;
    Alcotest.test_case "run ~until leaves future events" `Quick
      test_run_until;
    Alcotest.test_case "run ~until advances idle clock" `Quick
      test_run_until_idle_advances_clock;
    Alcotest.test_case "wheel: equal time across insert paths" `Quick
      test_wheel_equal_time_across_paths;
    Alcotest.test_case "wheel: all levels + overflow" `Quick test_wheel_spans;
    Alcotest.test_case "wheel: idle gap then burst" `Quick
      test_wheel_idle_gap;
    Alcotest.test_case "wheel: sparse program" `Quick test_wheel_sparse;
    Alcotest.test_case "wheel: counters and stat hooks" `Quick
      test_wheel_counters;
    Alcotest.test_case "cancel drops the body" `Quick test_cancel_drops_body;
    Alcotest.test_case "reserved seq keeps its place" `Quick
      test_reserved_seq_keeps_its_place;
    Alcotest.test_case "firing_seq outside and inside bodies" `Quick
      test_firing_seq;
    QCheck_alcotest.to_alcotest prop_wheel_matches_reference;
  ]
