(* TCP corner cases: simultaneous open, listener lifecycle, RST
   generation, ephemeral wraparound, loopback sends. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Ip_layer = Tcpfo_ip.Ip_layer
module Rto = Tcpfo_tcp.Rto
module Obs = Tcpfo_obs.Obs
open Testutil

let test_simultaneous_open () =
  (* both ends actively connect to each other's fixed ports *)
  let lan = make_simple_lan () in
  let a =
    Stack.connect (Host.tcp lan.client) ~local_port:7001
      ~remote:(Host.addr lan.server, 7002)
      ()
  in
  let b =
    Stack.connect (Host.tcp lan.server) ~local_port:7002
      ~remote:(Host.addr lan.client, 7001)
      ()
  in
  let got_a = make_sink () and got_b = make_sink () in
  wire_sink got_a a;
  wire_sink got_b b;
  Tcb.set_on_established a (fun () -> ignore (Tcb.send a "from-a"));
  Tcb.set_on_established b (fun () -> ignore (Tcb.send b "from-b"));
  World.run lan.world ~for_:(Time.sec 30.0);
  check_bool "a established" true (Tcb.state a = Tcb.Established);
  check_bool "b established" true (Tcb.state b = Tcb.Established);
  check_string "a received" "from-b" (sink_contents got_a);
  check_string "b received" "from-a" (sink_contents got_b)

let test_unlisten_stops_accepting () =
  let lan = make_simple_lan () in
  let accepted = ref 0 in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun _ ->
      incr accepted);
  let c1 =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  World.run lan.world ~for_:(Time.ms 50);
  check_int "first accepted" 1 !accepted;
  Stack.unlisten (Host.tcp lan.server) ~port:80;
  let c2 =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  let s2 = make_sink () in
  wire_sink s2 c2;
  World.run lan.world ~for_:(Time.sec 5.0);
  check_int "no second accept" 1 !accepted;
  check_int "second connect refused" 1 s2.resets;
  (* the first connection is unaffected by unlisten *)
  check_bool "first conn alive" true (Tcb.state c1 = Tcb.Established);
  check_bool "server sent an RST" true
    (Tcpfo_obs.Registry.counter_value (World.metrics lan.world)
       "host.server.tcp.rst_sent"
    >= 1)

let test_rst_counted_for_stray_segment () =
  let lan = make_simple_lan () in
  (* inject a stray non-SYN segment at the server: it must answer RST *)
  let seg =
    Tcpfo_packet.Tcp_segment.make
      ~flags:{ Tcpfo_packet.Tcp_segment.no_flags with ack = true }
      ~ack:(Tcpfo_util.Seq32.of_int 77)
      ~src_port:5555 ~dst_port:4444
      ~seq:(Tcpfo_util.Seq32.of_int 42) ()
  in
  Ip_layer.send_tcp (Host.ip lan.client) ~src:(Host.addr lan.client)
    ~dst:(Host.addr lan.server) seg;
  World.run_until_idle lan.world;
  check_int "rst sent" 1
    (Tcpfo_obs.Registry.counter_value (World.metrics lan.world)
       "host.server.tcp.rst_sent")

let test_ephemeral_wraparound () =
  let lan = make_simple_lan () in
  let stack = Host.tcp lan.client in
  (* exhaust the allocator close to the top and watch it wrap *)
  let rec spin last n =
    if n = 0 then last else spin (Stack.fresh_port stack) (n - 1)
  in
  let _ = spin 0 (65535 - 49152 + 1) in
  let after_wrap = Stack.fresh_port stack in
  check_int "wrapped to base" 49152 after_wrap

let test_loopback_connection () =
  (* a host connecting to its own address never touches the wire *)
  let lan = make_simple_lan () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb;
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string ssink.buf d;
          ignore (Tcb.send tcb "pong")));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.server) ~remote:(Host.addr lan.server, 80) ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping"));
  World.run lan.world ~for_:(Time.sec 5.0);
  check_string "loopback request" "ping" (sink_contents ssink);
  check_string "loopback reply" "pong" (sink_contents csink)

let test_connect_duplicate_tuple_rejected () =
  let lan = make_simple_lan () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun _ -> ());
  let _a =
    Stack.connect (Host.tcp lan.client) ~local_port:6000
      ~remote:(Host.addr lan.server, 80)
      ()
  in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Stack.connect: connection already exists") (fun () ->
      ignore
        (Stack.connect (Host.tcp lan.client) ~local_port:6000
           ~remote:(Host.addr lan.server, 80)
           ()))

let test_connect_bad_source_rejected () =
  let lan = make_simple_lan () in
  Alcotest.check_raises "foreign source rejected"
    (Invalid_argument "Stack.connect: source address not local") (fun () ->
      ignore
        (Stack.connect (Host.tcp lan.client)
           ~local:(Tcpfo_packet.Ipaddr.of_string "9.9.9.9")
           ~remote:(Host.addr lan.server, 80)
           ()))

(* Every acked segment with a timing probe feeds the estimator, so after
   the first sample it updates two unboxed floats in place. *)
let test_rto_sample_allocates_nothing () =
  let rto =
    Rto.create (Rto.instruments (Obs.silent ())) ~init:(Time.sec 1.0)
      ~min:(Time.ms 200) ~max:(Time.sec 60.0) ()
  in
  let samples () =
    for i = 1 to 10_000 do
      Rto.sample rto (Time.us (2_000 + (i mod 7 * 300)))
    done
  in
  (* the first pass also widens the rtt histogram over the range *)
  samples ();
  let w0 = Gc.minor_words () in
  samples ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 10k samples" 0.0 (w1 -. w0);
  check_bool "estimate in range" true
    (match Rto.srtt rto with
    | Some s -> s >= Time.ms 2 && s <= Time.ms 4
    | None -> false)

let suite =
  [
    Alcotest.test_case "simultaneous open" `Quick test_simultaneous_open;
    Alcotest.test_case "rto sample allocates nothing" `Quick
      test_rto_sample_allocates_nothing;
    Alcotest.test_case "unlisten stops accepting" `Quick
      test_unlisten_stops_accepting;
    Alcotest.test_case "stray segment answered with RST" `Quick
      test_rst_counted_for_stray_segment;
    Alcotest.test_case "ephemeral port wraparound" `Quick
      test_ephemeral_wraparound;
    Alcotest.test_case "loopback connection" `Quick test_loopback_connection;
    Alcotest.test_case "duplicate 4-tuple rejected" `Quick
      test_connect_duplicate_tuple_rejected;
    Alcotest.test_case "foreign source rejected" `Quick
      test_connect_bad_source_rejected;
  ]

(* ---------------- congestion dynamics ---------------- *)

(* Watch the sender's flight size grow on a high-BDP path: slow start
   doubles per RTT until loss or the advertised window caps it. *)
let test_slow_start_growth () =
  let world = World.create () in
  let link =
    Tcpfo_net.Link.create (World.engine world) ~rng:(World.fresh_rng world)
      { Tcpfo_net.Link.default_config with bandwidth_bps = 100_000_000;
        delay = Time.ms 50; queue_capacity = 4096 }
  in
  let a =
    Host.create (World.engine world) ~name:"a" ~rng:(World.fresh_rng world) ()
  in
  Host.attach_ptp a (Tcpfo_net.Link.endpoint_a link)
    ~addr:(Tcpfo_packet.Ipaddr.of_string "192.168.1.1");
  let b =
    Host.create (World.engine world) ~name:"b" ~rng:(World.fresh_rng world) ()
  in
  Host.attach_ptp b (Tcpfo_net.Link.endpoint_b link)
    ~addr:(Tcpfo_packet.Ipaddr.of_string "192.168.1.2");
  Stack.listen (Host.tcp b) ~port:80 ~on_accept:(fun _ -> ());
  let c = Stack.connect (Host.tcp a) ~remote:(Host.addr b, 80) () in
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:50 300_000));
  (* sample flight size at ~1.5 RTT intervals: it must grow markedly *)
  let samples = ref [] in
  let rec sample n =
    if n > 0 then
      ignore
        ((Host.clock a).schedule (Time.ms 110) (fun () ->
             samples :=
               Tcpfo_util.Seq32.diff (Tcb.snd_nxt c) (Tcb.snd_una c)
               :: !samples;
             sample (n - 1)))
  in
  Tcb.set_on_established c (fun () ->
      send_all c (pattern ~tag:50 300_000);
      sample 4);
  World.run world ~for_:(Time.sec 30.0);
  match List.rev !samples with
  | s1 :: rest ->
    let smax = List.fold_left max s1 rest in
    check_bool
      (Printf.sprintf "flight grew (first=%d max=%d)" s1 smax)
      true
      (float_of_int smax >= 2.5 *. float_of_int (max s1 1460))
  | [] -> Alcotest.fail "no samples"

let test_cwnd_collapse_on_timeout () =
  (* after an RTO the in-flight data must shrink to about one segment *)
  let lan = make_simple_lan () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  (* blackhole the server for a while mid-transfer, then restore *)
  let blackhole = ref false in
  let inner = Ip_layer.rx_hook (Host.ip lan.server) in
  Ip_layer.set_rx_hook (Host.ip lan.server)
    (Some
       (fun pkt ~link_addressed ->
         if !blackhole then Ip_layer.Rx_drop
         else
           match inner with
           | None -> Ip_layer.Rx_pass pkt
           | Some h -> h pkt ~link_addressed));
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:51 400_000));
  ignore
    ((Host.clock lan.client).schedule (Time.ms 10) (fun () ->
         blackhole := true));
  ignore
    ((Host.clock lan.client).schedule (Time.ms 600) (fun () ->
         blackhole := false));
  (* sample flight just after the first RTO fires (~210-400ms) *)
  let flight_after_rto = ref (-1) in
  ignore
    ((Host.clock lan.client).schedule (Time.ms 450) (fun () ->
         flight_after_rto :=
           Tcpfo_util.Seq32.diff (Tcb.snd_nxt c) (Tcb.snd_una c)));
  World.run lan.world ~for_:(Time.sec 60.0);
  check_bool
    (Printf.sprintf "flight collapsed to ~1 MSS (%d)" !flight_after_rto)
    true
    (!flight_after_rto >= 0 && !flight_after_rto <= 2 * 1460);
  check_string "transfer still completes" (pattern ~tag:51 400_000)
    (sink_contents ssink)

let suite =
  suite
  @ [
      Alcotest.test_case "slow start grows the flight" `Quick
        test_slow_start_growth;
      Alcotest.test_case "cwnd collapses after RTO" `Quick
        test_cwnd_collapse_on_timeout;
    ]
