module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
open Testutil

(* Transfer [data] client -> server over a fresh LAN; return what the
   server received and both endpoints. *)
let transfer ?medium_config ?tcp_config data =
  let lan = make_simple_lan ?medium_config ?tcp_config () in
  let ssink = make_sink () in
  let server_conn = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      server_conn := Some tcb;
      wire_sink ssink tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all ~close:true c data);
  World.run_until_idle lan.world;
  (lan, ssink, c, !server_conn)

let test_bulk_one_way () =
  let data = pattern ~tag:1 100_000 in
  let _, ssink, c, _ = transfer data in
  check_int "length" (String.length data)
    (String.length (sink_contents ssink));
  check_string "content" data (sink_contents ssink);
  check_bool "eof delivered" true ssink.eof;
  check_int "no retransmits on clean lan" 0 (Tcb.retransmits c)

let test_larger_than_buffers () =
  (* 1 MB >> 64 KB send buffer: exercises backpressure/on_drain *)
  let data = pattern ~tag:2 1_000_000 in
  let _, ssink, _, _ = transfer data in
  check_int "length" 1_000_000 (String.length (sink_contents ssink));
  check_string "content" data (sink_contents ssink)

let test_segmentation_respects_mss () =
  let data = pattern ~tag:3 50_000 in
  let lan = make_simple_lan () in
  let max_seen = ref 0 in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb;
      Tcb.set_on_data tcb (fun s ->
          Buffer.add_string ssink.buf s;
          max_seen := max !max_seen (String.length s)));
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all c data);
  World.run_until_idle lan.world;
  check_int "all arrived" 50_000 (Buffer.length ssink.buf);
  (* deliveries can coalesce in reassembly, but single segments never
     exceed the MSS; verify via the sender's counters *)
  check_bool "many segments" true (Tcb.segments_out c >= 50_000 / 1460)

let test_duplex_transfer () =
  let c2s = pattern ~tag:4 30_000 and s2c = pattern ~tag:5 42_000 in
  let lan = make_simple_lan () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb;
      Tcb.set_on_established tcb (fun () -> send_all ~close:true tcb s2c));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all ~close:true c c2s);
  World.run_until_idle lan.world;
  check_string "server received" c2s (sink_contents ssink);
  check_string "client received" s2c (sink_contents csink);
  check_bool "both eof" true (ssink.eof && csink.eof)

let test_throughput_wire_limited () =
  (* 1 MB over an idle 100 Mb/s LAN should take roughly
     payload/wire-rate * overheads: at least 85 ms, at most ~250 ms *)
  let data = pattern ~tag:6 1_000_000 in
  let lan, ssink, _, _ = transfer data in
  let t = Time.to_sec (World.now lan.world) in
  ignore ssink;
  check_bool "not faster than wire" true (t > 0.08);
  check_bool "reasonable efficiency" true (t < 0.4)

let test_delayed_ack_quiescent () =
  (* a single small segment with nothing to piggyback on: the receiver
     must emit a delayed ACK within ~delack_delay and the sender must not
     retransmit *)
  let lan = make_simple_lan () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "x"));
  World.run_until_idle lan.world;
  check_string "arrived" "x" (sink_contents ssink);
  check_int "no retransmit" 0 (Tcb.retransmits c);
  check_int "fully acked" 1 (Tcb.bytes_acked c)

let test_interleaved_sends () =
  let lan = make_simple_lan () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  let chunks = List.init 50 (fun i -> pattern ~tag:i (100 + (i * 7))) in
  Tcb.set_on_established c (fun () ->
      List.iteri
        (fun i chunk ->
          ignore
            ((Host.clock lan.client).schedule
               (Time.us (i * 137))
               (fun () -> ignore (Tcb.send c chunk))))
        chunks);
  World.run_until_idle lan.world;
  check_string "stream order preserved" (String.concat "" chunks)
    (sink_contents ssink)

let suite =
  [
    Alcotest.test_case "bulk one-way transfer" `Quick test_bulk_one_way;
    Alcotest.test_case "1MB with 64KB buffer backpressure" `Quick
      test_larger_than_buffers;
    Alcotest.test_case "segmentation respects MSS" `Quick
      test_segmentation_respects_mss;
    Alcotest.test_case "full-duplex simultaneous transfer" `Quick
      test_duplex_transfer;
    Alcotest.test_case "throughput wire-limited" `Quick
      test_throughput_wire_limited;
    Alcotest.test_case "delayed ACK on quiescent connection" `Quick
      test_delayed_ack_quiescent;
    Alcotest.test_case "interleaved timed sends keep order" `Quick
      test_interleaved_sends;
  ]

let test_pause_resume_backpressure () =
  (* a paused reader shrinks the advertised window to zero; resuming
     delivers the parked bytes and reopens the window *)
  let lan = make_simple_lan () in
  let delivered = Buffer.create 256 in
  let server_conn = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      server_conn := Some tcb;
      Tcb.pause_reading tcb;
      Tcb.set_on_data tcb (fun d -> Buffer.add_string delivered d));
  let data = pattern ~tag:60 200_000 in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all c data);
  (* run a while: the transfer must stall once the server's 64K buffer
     fills, with nothing delivered to the paused app *)
  World.run lan.world ~for_:(Time.sec 3.0);
  check_int "nothing delivered while paused" 0 (Buffer.length delivered);
  (match !server_conn with
  | Some s ->
    check_bool "bytes parked" true (Tcb.recv_queue_length s > 30_000);
    check_bool "client stalled well short of total" true
      (Tcb.bytes_acked c < 100_000);
    (* resume: parked bytes delivered at once, window reopens, transfer
       completes (zero-window persist probes keep the connection alive) *)
    Tcb.resume_reading s
  | None -> Alcotest.fail "no server conn");
  World.run lan.world ~for_:(Time.sec 60.0);
  check_string "full stream after resume" data (Buffer.contents delivered)

let test_pause_resume_cycles () =
  (* duty-cycled consumer: repeated pause/resume never loses or reorders
     bytes *)
  let lan = make_simple_lan () in
  let delivered = Buffer.create 256 in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string delivered d;
          Tcb.pause_reading tcb;
          ignore
            ((Host.clock lan.server).schedule (Time.ms 2) (fun () ->
                 Tcb.resume_reading tcb))));
  let data = pattern ~tag:61 150_000 in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all c data);
  World.run lan.world ~for_:(Time.sec 60.0);
  check_string "stream exact through duty-cycled reader" data
    (Buffer.contents delivered)

let suite =
  suite
  @ [
      Alcotest.test_case "pause/resume backpressure" `Quick
        test_pause_resume_backpressure;
      Alcotest.test_case "duty-cycled reader keeps stream exact" `Quick
        test_pause_resume_cycles;
    ]

(* ---------------- Sender silly-window avoidance ---------------- *)

module Seq32 = Tcpfo_util.Seq32
module Seg = Tcpfo_packet.Tcp_segment

(* A server TCB with no network under it: [out] collects what it emits,
   newest first, and the test plays the peer by hand.  The peer's SYN
   announces a 1,460 B MSS and [window]; our ISN is 1000, the peer's
   100.  No timer fires until the test runs [engine]. *)
type driven = {
  engine : Engine.t;
  tcb : Tcb.t;
  out : Seg.t list ref;
}

let peer_port = 5000

let peer_seg ?(flags = { Seg.no_flags with ack = true }) ?(options = [])
    ~ack ~window () =
  Seg.make ~flags ~ack:(Seq32.of_int ack) ~window ~options
    ~src_port:peer_port ~dst_port:80 ~seq:(Seq32.of_int 101) ()

(* The peer acknowledges everything up to sequence [upto]. *)
let peer_ack d ~upto ~window =
  Tcb.segment_arrives d.tcb (peer_seg ~ack:upto ~window ())

let driven ~window =
  let engine = Engine.create () in
  let out = ref [] in
  let d =
    {
      engine;
      tcb =
        Tcb.create_passive (host_clock engine)
          ~instruments:(Tcb.instruments (Tcpfo_obs.Obs.silent ()))
          ~config:Tcpfo_tcp.Tcp_config.default
          ~local:(Tcpfo_packet.Ipaddr.of_string "10.0.0.1", 80)
          ~remote:(Tcpfo_packet.Ipaddr.of_string "10.0.0.10", peer_port)
          ~iss:(Seq32.of_int 1000)
          { Tcb.emit = (fun s -> out := s :: !out); on_delete = ignore }
          ~syn:
            (Seg.make
               ~flags:{ Seg.no_flags with syn = true }
               ~window ~options:[ Seg.Mss 1460 ] ~src_port:peer_port
               ~dst_port:80 ~seq:(Seq32.of_int 100) ());
      out;
    }
  in
  peer_ack d ~upto:1001 ~window;
  out := [];
  d

(* Payload lengths emitted since the last call, oldest first. *)
let take_lengths d =
  let l = List.rev_map (fun (s : Seg.t) -> String.length s.payload) !(d.out) in
  d.out := [];
  List.filter (fun n -> n > 0) l

let check_lengths = Alcotest.(check (list int))

(* Five segments in flight, three duplicate ACKs: fast retransmit sets
   cwnd = ssthresh = 3,650 B (2.5 MSS).  The ACK for all five grows it
   by MSS^2/cwnd to 4,234 B, room for two full segments and a 1,314 B
   remainder; with the first two in flight the remainder waits, and
   every ACK after that still releases only full segments. *)
let test_odd_cwnd_full_segments () =
  let d = driven ~window:65535 in
  ignore (Tcb.send d.tcb (String.make 60_000 'x'));
  (* slow start (the ACK of our SYN already grew cwnd to 3 MSS): 3
     segments, then 4 more, then 5 in flight *)
  peer_ack d ~upto:(1001 + (3 * 1460)) ~window:65535;
  peer_ack d ~upto:(1001 + (7 * 1460)) ~window:65535;
  check_lengths "slow start sends full segments" (List.init 12 (fun _ -> 1460))
    (take_lengths d);
  let una = 1001 + (7 * 1460) in
  for _ = 1 to 3 do
    peer_ack d ~upto:una ~window:65535
  done;
  check_lengths "fast retransmit resends one segment" [ 1460 ]
    (take_lengths d);
  peer_ack d ~upto:(una + (5 * 1460)) ~window:65535;
  check_lengths "a 2.9 MSS window sends two full segments" [ 1460; 1460 ]
    (take_lengths d);
  let una = una + (5 * 1460) in
  for k = 1 to 20 do
    peer_ack d ~upto:(una + (k * 1460)) ~window:65535;
    List.iter
      (fun n -> check_int "only full segments while data is in flight" 1460 n)
      (take_lengths d)
  done

(* A reply smaller than two segments leaves whole, at once: the 588 B
   tail carries all the queued data, so it does not wait for the ACK of
   the first 1,460 (no Nagle). *)
let test_reply_tail_not_held () =
  let d = driven ~window:65535 in
  ignore (Tcb.send d.tcb (String.make 2048 'r'));
  check_lengths "1,460 + 588 without an ACK" [ 1460; 588 ] (take_lengths d)

(* A 2,000 B peer window: after the first full segment only 540 B of
   window remain, under half of it, so the sender waits for the ACK
   rather than splitting the window; every exchange still moves a full
   segment and the transfer completes.  Closed to zero, the window is
   probed one byte at a time. *)
let test_small_window_drains () =
  let d = driven ~window:2000 in
  let total = 10_000 in
  ignore (Tcb.send d.tcb (String.make total 'w'));
  let sent = ref 0 in
  let rounds = ref 0 in
  while !sent < total && !rounds < 20 do
    incr rounds;
    let lens = take_lengths d in
    List.iter (fun n -> check_bool "within the window" true (n <= 2000)) lens;
    sent := !sent + List.fold_left ( + ) 0 lens;
    peer_ack d ~upto:(1001 + !sent) ~window:2000
  done;
  check_int "every byte sent" total !sent;
  check_int "one segment per round trip" 7 !rounds;
  ignore (Tcb.send d.tcb (String.make 100 'z'));
  ignore (take_lengths d);
  peer_ack d ~upto:(1001 + total + 100) ~window:0;
  ignore (Tcb.send d.tcb "more");
  check_lengths "nothing sent into a zero window" [] (take_lengths d);
  Engine.run_for d.engine (Time.sec 2.0);
  check_bool "a one-byte window probe" true (List.mem 1 (take_lengths d))

(* With nothing in flight no ACK is coming to release a short segment,
   so a window smaller than the MSS is filled at once. *)
let test_idle_runt_sent () =
  let d = driven ~window:1000 in
  ignore (Tcb.send d.tcb (String.make 5000 's'));
  check_lengths "a 1,000 B segment into a 1,000 B window" [ 1000 ]
    (take_lengths d)

let suite =
  suite
  @ [
      Alcotest.test_case "odd cwnd sends only full segments" `Quick
        test_odd_cwnd_full_segments;
      Alcotest.test_case "a 2,048 B reply leaves at once" `Quick
        test_reply_tail_not_held;
      Alcotest.test_case "a sub-2-MSS window drains" `Quick
        test_small_window_drains;
      Alcotest.test_case "an idle sender fills a small window" `Quick
        test_idle_runt_sent;
    ]
