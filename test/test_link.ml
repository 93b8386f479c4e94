module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Link = Tcpfo_net.Link
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

let mk_pkt n =
  Ipv4_packet.make ~src:(Ipaddr.of_int 1) ~dst:(Ipaddr.of_int 2)
    (Ipv4_packet.Raw { proto = 99; data = String.make n 'q' })

let setup ?(config = Link.default_config) () =
  let e = Engine.create () in
  let l = Link.create e ~rng:(Rng.create ~seed:5) config in
  (e, l)

let test_delivery_both_directions () =
  let e, l = setup () in
  let at_b = ref 0 and at_a = ref 0 in
  Link.set_receiver (Link.endpoint_b l) (fun _ -> incr at_b);
  Link.set_receiver (Link.endpoint_a l) (fun _ -> incr at_a);
  Link.send (Link.endpoint_a l) (mk_pkt 100);
  Link.send (Link.endpoint_b l) (mk_pkt 100);
  Engine.run e;
  Testutil.check_int "a->b" 1 !at_b;
  Testutil.check_int "b->a" 1 !at_a

let test_latency () =
  let e, l =
    setup
      ~config:
        { Link.default_config with bandwidth_bps = 8_000_000;
          delay = Time.ms 30 }
      ()
  in
  let arrival = ref Time.zero in
  Link.set_receiver (Link.endpoint_b l) (fun _ -> arrival := Engine.now e);
  (* 980-byte payload -> 1000-byte datagram -> 8000 bits @8Mb/s = 1 ms
     serialization + 30 ms propagation *)
  Link.send (Link.endpoint_a l) (mk_pkt 980);
  Engine.run e;
  Testutil.check_int "latency" (Time.ms 31) !arrival

let test_queue_serializes () =
  let e, l =
    setup
      ~config:
        { Link.default_config with bandwidth_bps = 8_000_000; delay = 0 }
      ()
  in
  let times = ref [] in
  Link.set_receiver (Link.endpoint_b l) (fun _ ->
      times := Engine.now e :: !times);
  Link.send (Link.endpoint_a l) (mk_pkt 980);
  Link.send (Link.endpoint_a l) (mk_pkt 980);
  Engine.run e;
  (match List.rev !times with
  | [ t1; t2 ] ->
    Testutil.check_int "first" (Time.ms 1) t1;
    Testutil.check_int "second serialized behind" (Time.ms 2) t2
  | _ -> Alcotest.fail "expected two deliveries")

let test_queue_overflow_drops () =
  let e = Engine.create () in
  let obs = Obs.create () in
  let l =
    Link.create e ~rng:(Rng.create ~seed:5) ~obs
      { Link.default_config with queue_capacity = 2;
        bandwidth_bps = 1_000_000 }
  in
  let got = ref 0 in
  Link.set_receiver (Link.endpoint_b l) (fun _ -> incr got);
  (* one transmitting + 2 queued; the rest dropped *)
  for _ = 1 to 10 do
    Link.send (Link.endpoint_a l) (mk_pkt 1000)
  done;
  Engine.run e;
  Testutil.check_int "delivered" 3 !got;
  (* congestion drops land in their own counter, not in random loss *)
  Testutil.check_int "queue_full" 7
    (Registry.counter_value (Obs.metrics obs) "link.queue_full");
  Testutil.check_int "dropped" 0
    (Registry.counter_value (Obs.metrics obs) "link.dropped")

let test_random_loss () =
  let e, l = setup ~config:{ Link.default_config with loss_prob = 0.3 } () in
  let got = ref 0 in
  Link.set_receiver (Link.endpoint_b l) (fun _ -> incr got);
  for i = 0 to 199 do
    ignore
      (Engine.schedule e ~delay:(Time.ms i) (fun () ->
           Link.send (Link.endpoint_a l) (mk_pkt 100)))
  done;
  Engine.run e;
  Testutil.check_bool "lossy" true (!got < 200 && !got > 100)

let test_jitter_bounds () =
  let e, l =
    setup
      ~config:
        { Link.default_config with jitter = Time.ms 5; delay = Time.ms 10 }
      ()
  in
  let ok = ref true in
  let sent_at = ref Time.zero in
  Link.set_receiver (Link.endpoint_b l) (fun _ ->
      let d = Engine.now e - !sent_at in
      (* serialization for 120B @10Mb/s = 96us *)
      if d < Time.ms 10 || d > Time.add (Time.ms 15) (Time.us 96) then
        ok := false);
  for i = 0 to 50 do
    ignore
      (Engine.schedule e ~delay:(Time.ms (i * 20)) (fun () ->
           sent_at := Engine.now e;
           Link.send (Link.endpoint_a l) (mk_pkt 100)))
  done;
  Engine.run e;
  Testutil.check_bool "jitter within bounds" true !ok

let suite =
  [
    Alcotest.test_case "bidirectional delivery" `Quick
      test_delivery_both_directions;
    Alcotest.test_case "bandwidth + propagation latency" `Quick test_latency;
    Alcotest.test_case "queue serializes back-to-back packets" `Quick
      test_queue_serializes;
    Alcotest.test_case "queue overflow drops" `Quick
      test_queue_overflow_drops;
    Alcotest.test_case "random loss" `Quick test_random_loss;
    Alcotest.test_case "jitter within bounds" `Quick test_jitter_bounds;
  ]

let test_duplication () =
  let e, l = setup ~config:{ Link.default_config with dup_prob = 1.0 } () in
  let got = ref 0 in
  Link.set_receiver (Link.endpoint_b l) (fun _ -> incr got);
  Link.send (Link.endpoint_a l) (mk_pkt 100);
  Engine.run e;
  Testutil.check_int "duplicated" 2 !got

let test_reordering () =
  let e, l =
    setup
      ~config:
        { Link.default_config with reorder_prob = 0.4; delay = Time.ms 1 }
      ()
  in
  let order = ref [] in
  Link.set_receiver (Link.endpoint_b l) (fun p ->
      match p.Ipv4_packet.payload with
      | Ipv4_packet.Raw { data; _ } ->
        order := int_of_string (String.trim data) :: !order
      | _ -> ());
  for i = 1 to 50 do
    Link.send (Link.endpoint_a l)
      (Ipv4_packet.make ~src:(Ipaddr.of_int 1) ~dst:(Ipaddr.of_int 2)
         (Ipv4_packet.Raw { proto = 99; data = Printf.sprintf "%6d" i }))
  done;
  Engine.run e;
  let received = List.rev !order in
  Testutil.check_int "nothing lost" 50 (List.length received);
  Testutil.check_bool "some out of order" true
    (received <> List.sort compare received)

let test_copies_at_own_due_times () =
  (* 40 back-to-back 1000-byte datagrams at 80 Mb/s: packet i leaves the
     wire at (i+1) * 100 us.  A reordered packet is held back by k
     serialization times (k in 2..7), so it lands on the same instant as
     the unreordered packet k places behind it; a duplicate trails its
     original by ser/2 + 1.  Each copy must arrive at its own due time,
     and copies due at the same instant must arrive in send order. *)
  let ser = Time.us 100 and delay = Time.ms 1 and n = 40 in
  let e, l =
    setup
      ~config:
        { Link.default_config with bandwidth_bps = 80_000_000; delay;
          reorder_prob = 0.4; dup_prob = 0.5 }
      ()
  in
  let log = ref [] in
  Link.set_receiver (Link.endpoint_b l) (fun p ->
      match p.Ipv4_packet.payload with
      | Ipv4_packet.Raw { data; _ } ->
        log := (Engine.now e, int_of_string (String.trim data)) :: !log
      | _ -> ());
  for i = 0 to n - 1 do
    Link.send (Link.endpoint_a l)
      (Ipv4_packet.make ~src:(Ipaddr.of_int 1) ~dst:(Ipaddr.of_int 2)
         (Ipv4_packet.Raw { proto = 99; data = Printf.sprintf "%980d" i }))
  done;
  Engine.run e;
  let log = List.rev !log in
  let reordered = ref 0 and duplicated = ref 0 in
  for i = 0 to n - 1 do
    let base = ((i + 1) * ser) + delay in
    match List.filter_map (fun (at, j) -> if j = i then Some at else None) log
    with
    | [] -> Alcotest.failf "packet %d lost" i
    | first :: rest ->
      let held = first - base in
      if held <> 0 then begin
        incr reordered;
        if held mod ser <> 0 || held < 2 * ser || held > 7 * ser then
          Alcotest.failf "packet %d held back %d ns" i held
      end;
      (match rest with
      | [] -> ()
      | [ dup ] ->
        incr duplicated;
        Testutil.check_int
          (Printf.sprintf "duplicate of %d" i)
          (first + (ser / 2) + 1)
          dup
      | _ -> Alcotest.failf "packet %d delivered %d times" i (List.length rest + 1))
  done;
  Testutil.check_bool "some packets reordered" true (!reordered > 0);
  Testutil.check_bool "some packets duplicated" true (!duplicated > 0);
  let ties = ref 0 in
  let rec check_order = function
    | (t1, i1) :: ((t2, i2) :: _ as rest) ->
      if t2 < t1 then Alcotest.fail "arrivals out of time order";
      if t2 = t1 then begin
        incr ties;
        if i2 <= i1 then
          Alcotest.failf "at %d ns packet %d arrived before %d" t1 i1 i2
      end;
      check_order rest
    | _ -> ()
  in
  check_order log;
  Testutil.check_bool "some copies due at the same instant" true (!ties > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "duplication" `Quick test_duplication;
      Alcotest.test_case "reordering" `Quick test_reordering;
      Alcotest.test_case "reorder+dup: own due times, send order on ties"
        `Quick test_copies_at_own_due_times;
    ]
