module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Tcp_config = Tcpfo_tcp.Tcp_config
open Testutil

(* Short MSL so TIME_WAIT drains within tests. *)
let fast_close = { Tcp_config.default with msl = Time.ms 50 }

let setup ?(on_server_eof = fun (_ : Tcb.t) -> ()) () =
  let lan = make_simple_lan ~tcp_config:fast_close () in
  let server_conn = ref None in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      server_conn := Some tcb;
      wire_sink ssink tcb;
      Tcb.set_on_eof tcb (fun () ->
          ssink.eof <- true;
          on_server_eof tcb));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  wire_sink csink c;
  (lan, c, csink, server_conn, ssink)

let test_active_close_by_client () =
  let lan, c, csink, server_conn, ssink = setup ~on_server_eof:Tcb.close () in
  Tcb.set_on_established c (fun () ->
      ignore (Tcb.send c "bye");
      Tcb.close c);
  World.run_until_idle lan.world;
  check_string "data before fin" "bye" (sink_contents ssink);
  check_bool "server saw eof" true ssink.eof;
  check_bool "client saw eof" true csink.eof;
  check_bool "client gone" true (Tcb.state c = Tcb.Closed);
  (match !server_conn with
  | Some s -> check_bool "server gone" true (Tcb.state s = Tcb.Closed)
  | None -> Alcotest.fail "no conn");
  check_int "no lingering conns client" 0
    (Stack.connection_count (Host.tcp lan.client));
  check_int "no lingering conns server" 0
    (Stack.connection_count (Host.tcp lan.server))

let test_half_close_server_keeps_sending () =
  (* client closes its direction; server continues sending data and the
     client keeps receiving it (half-closed state of §8) *)
  let reply = pattern ~tag:11 20_000 in
  let clock = ref None in
  let lan, c, csink, _server_conn, ssink =
    setup
      ~on_server_eof:(fun s ->
        (* deliberate delay: send the reply only once the client is
           half-closed *)
        match !clock with
        | Some (clk : Tcpfo_sim.Clock.t) ->
          ignore
            (clk.schedule (Time.ms 10) (fun () ->
                 send_all ~close:true s reply))
        | None -> ())
      ()
  in
  clock := Some (Host.clock lan.server);
  Tcb.set_on_established c (fun () ->
      ignore (Tcb.send c "request");
      Tcb.close c);
  World.run_until_idle lan.world;
  check_string "server got request" "request" (sink_contents ssink);
  check_string "client got reply after half-close" reply
    (sink_contents csink);
  check_bool "client fully closed" true (Tcb.state c = Tcb.Closed)

let test_simultaneous_close () =
  let lan, c, csink, server_conn, ssink = setup () in
  Tcb.set_on_established c (fun () ->
      (* both sides close at (almost) the same instant *)
      ignore ((Host.clock lan.client).schedule (Time.ms 5) (fun () -> Tcb.close c));
      ignore
        ((Host.clock lan.server).schedule (Time.ms 5) (fun () ->
             match !server_conn with Some s -> Tcb.close s | None -> ())));
  World.run_until_idle lan.world;
  ignore csink;
  ignore ssink;
  check_bool "client closed" true (Tcb.state c = Tcb.Closed);
  (match !server_conn with
  | Some s -> check_bool "server closed" true (Tcb.state s = Tcb.Closed)
  | None -> Alcotest.fail "no conn");
  check_int "tables empty" 0 (Stack.connection_count (Host.tcp lan.client))

let test_time_wait_holds_then_releases () =
  let lan, c, _csink, server_conn, _ssink =
    setup ~on_server_eof:Tcb.close ()
  in
  ignore server_conn;
  Tcb.set_on_established c (fun () -> Tcb.close c);
  (* run just past the handshake + FINs but before 2*MSL elapses *)
  World.run lan.world ~for_:(Time.ms 30);
  check_bool "client in TIME_WAIT" true (Tcb.state c = Tcb.Time_wait);
  World.run_until_idle lan.world;
  check_bool "released" true (Tcb.state c = Tcb.Closed)

let test_abort_sends_rst () =
  let lan, c, _csink, server_conn, ssink = setup () in
  Tcb.set_on_established c (fun () ->
      ignore
        ((Host.clock lan.client).schedule (Time.ms 2) (fun () -> Tcb.abort c)));
  World.run_until_idle lan.world;
  ignore lan;
  check_bool "client closed" true (Tcb.state c = Tcb.Closed);
  check_bool "server reset" true
    (ssink.resets = 1
    || match !server_conn with Some s -> Tcb.state s = Tcb.Closed | None -> false)

let test_fin_with_data_in_flight () =
  (* close immediately after queueing a large block: all data must still
     arrive before the FIN is processed *)
  let data = pattern ~tag:12 90_000 in
  let lan, c, _csink, server_conn, ssink =
    setup ~on_server_eof:Tcb.close ()
  in
  ignore server_conn;
  Tcb.set_on_established c (fun () -> send_all ~close:true c data);
  World.run_until_idle lan.world;
  check_string "all data before eof" data (sink_contents ssink);
  check_bool "eof" true ssink.eof

let test_send_after_close_rejected () =
  let lan, c, _csink, _server_conn, _ssink =
    setup ~on_server_eof:Tcb.close ()
  in
  Tcb.set_on_established c (fun () ->
      Tcb.close c;
      check_int "send rejected" 0 (Tcb.send c "nope"));
  World.run_until_idle lan.world;
  check_bool "done" true (Tcb.state c = Tcb.Closed || Tcb.state c = Tcb.Time_wait)

(* Once every byte and the FIN are acknowledged, a connection gives its
   send ring's storage back: server connections that each sent 2 KiB and
   closed first hold less than that apiece through TIME_WAIT (2 MSL =
   10 s at the default MSL). *)
let test_time_wait_holds_no_send_ring () =
  let m = 64 in
  let lan = make_simple_lan () in
  let reply = String.make 2048 'r' in
  let servers = ref [] in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun s ->
      servers := s :: !servers;
      send_all ~close:true s reply);
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).live_words * (Sys.word_size / 8)
  in
  let before = live_bytes () in
  for _ = 1 to m do
    let c =
      Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
    in
    Tcb.set_on_eof c (fun () -> Tcb.close c)
  done;
  World.run lan.world ~for_:(Time.sec 1.0);
  check_int "servers in TIME_WAIT" m
    (List.length
       (List.filter (fun s -> Tcb.state s = Tcb.Time_wait) !servers));
  check_int "clients gone" 0 (Stack.connection_count (Host.tcp lan.client));
  let grown = live_bytes () - before in
  check_bool "live heap grew by less than 2 KiB per connection" true
    (grown < m * 2048);
  (* the emptied ring keeps its offsets through a snapshot round trip *)
  let s = List.hd !servers in
  let snap = Tcb.snapshot s in
  check_int "ring starts past the reply" (String.length reply)
    snap.Tcb.sn_sndbuf_start;
  check_string "no data held" "" snap.Tcb.sn_sndbuf_data;
  let restored =
    Tcb.restore (Host.clock lan.server)
      ~instruments:(Stack.tcb_instruments (Host.tcp lan.server))
      ~config:(Stack.config (Host.tcp lan.server))
      { Tcb.emit = ignore; on_delete = ignore } snap
  in
  let again = Tcb.snapshot restored in
  check_int "same start after restore" snap.Tcb.sn_sndbuf_start
    again.Tcb.sn_sndbuf_start;
  check_string "still empty" "" again.Tcb.sn_sndbuf_data

let suite =
  [
    Alcotest.test_case "active close, both directions" `Quick
      test_active_close_by_client;
    Alcotest.test_case "half-close: server keeps sending" `Quick
      test_half_close_server_keeps_sending;
    Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
    Alcotest.test_case "TIME_WAIT holds then releases" `Quick
      test_time_wait_holds_then_releases;
    Alcotest.test_case "abort sends RST" `Quick test_abort_sends_rst;
    Alcotest.test_case "close with data in flight" `Quick
      test_fin_with_data_in_flight;
    Alcotest.test_case "send after close rejected" `Quick
      test_send_after_close_rejected;
    Alcotest.test_case "TIME_WAIT holds no send ring" `Quick
      test_time_wait_holds_no_send_ring;
  ]
