module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Tcp_config = Tcpfo_tcp.Tcp_config
module Seg = Tcpfo_packet.Tcp_segment
module Seq32 = Tcpfo_util.Seq32
module Ipaddr = Tcpfo_packet.Ipaddr
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

(* Bytes reachable from the world and from the handles an application
   [held]: unlike the process's live heap, this leaves out whatever the
   test runner allocates or frees meanwhile. *)
let world_bytes ?(held = []) world =
  Obj.reachable_words (Obj.repr (world, held)) * (Sys.word_size / 8)

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
  let before = world_bytes lan.world in
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
  let grown = world_bytes ~held:!servers lan.world - before in
  check_bool
    (Printf.sprintf "%d B held per connection, < 2 KiB" (grown / m))
    true (grown < m * 2048);
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

(* The server answers every connection with 2 KiB and closes first; the
   client closes on EOF.  With [pinned], every ISS is 1000, so the
   client's FIN sits at 1001 and the server's TIME_WAIT ACK of it reads
   seq 3050, ack 1002. *)
let pinned =
  { Tcp_config.default with msl = Time.sec 1.0; iss_override = Some 1000 }

let serve_reply_then_close ?(on_accept = fun (_ : Tcb.t) -> ()) lan =
  let reply = String.make 2048 'r' in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun s ->
      on_accept s;
      send_all ~close:true s reply)

let client_closing_on_eof lan =
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_eof c (fun () -> Tcb.close c);
  c

(* A connection in TIME_WAIT is a compact record, not a TCB (DESIGN.md
   7.17): server connections that each sent 2 KiB and closed first, with
   no handle kept by the application, hold at most 400 B apiece through
   TIME_WAIT, where a full TCB held about 1 KiB. *)
let test_time_wait_is_compact () =
  let m = 64 in
  let lan = make_simple_lan () in
  serve_reply_then_close lan;
  let open_clients () =
    for _ = 1 to m do
      ignore (client_closing_on_eof lan)
    done
  in
  let server = Host.tcp lan.server in
  (* a first round, run until its records expire, leaves behind what
     every later round shares (instruments, intern tables, the engine's
     timer storage), so the second round's growth is its own *)
  open_clients ();
  World.run lan.world ~for_:(Time.sec 12.0);
  check_int "first round expired" 0 (Stack.connection_count server);
  let before = world_bytes lan.world in
  open_clients ();
  World.run lan.world ~for_:(Time.sec 1.0);
  check_int "servers in TIME_WAIT" m (Stack.connection_count server);
  check_int "clients gone" 0 (Stack.connection_count (Host.tcp lan.client));
  let per_conn = (world_bytes lan.world - before) / m in
  check_bool
    (Printf.sprintf "%d B per TIME_WAIT connection, <= 400" per_conn)
    true (per_conn <= 400)

let pure_ack (seg : Seg.t) =
  seg.flags.ack && (not seg.flags.syn) && (not seg.flags.fin)
  && (not seg.flags.rst) && seg.payload = ""

(* The server's final ACK is lost: the client, in LAST_ACK, retransmits
   its FIN, and the server's TIME_WAIT answers it with the same ACK and
   restarts 2 MSL from then. *)
let test_time_wait_reacks_retransmitted_fin () =
  let lan = make_simple_lan ~tcp_config:pinned () in
  serve_reply_then_close lan;
  let c = client_closing_on_eof lan in
  let client_addr = Host.addr lan.client in
  let fins_in = ref [] and acks_out = ref [] and rsts_out = ref 0 in
  let _ =
    drop_rx lan.server ~pred:(fun pkt ->
        (match pkt.Ipv4_packet.payload with
        | Tcp seg when seg.flags.fin && Ipaddr.equal pkt.src client_addr ->
          fins_in := World.now lan.world :: !fins_in
        | _ -> ());
        false)
  in
  tap_tx lan.server ~f:(fun pkt ->
      match pkt.Ipv4_packet.payload with
      | Tcp seg when seg.flags.rst -> incr rsts_out
      | Tcp seg when pure_ack seg && Seq32.to_int seg.ack = 1002 ->
        acks_out := (World.now lan.world, seg) :: !acks_out
      | _ -> ());
  let lose_next = ref true in
  let dropped =
    drop_rx lan.client ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg when !lose_next && pure_ack seg && Seq32.to_int seg.ack = 1002
          ->
          lose_next := false;
          true
        | Tcp _ | Raw _ -> false)
  in
  World.run lan.world ~for_:(Time.ms 1500);
  check_int "first final ACK dropped" 1 !dropped;
  check_bool "client closed on the second" true (Tcb.state c = Tcb.Closed);
  let t1 =
    match List.rev !fins_in with
    | [ _; t1 ] -> t1
    | l ->
      Alcotest.failf "expected the FIN and one retransmission, got %d"
        (List.length l)
  in
  (match List.rev !acks_out with
  | [ (_, a0); (at1, a1) ] ->
    List.iter
      (fun (a : Seg.t) ->
        check_int "ACK seq" 3050 (Seq32.to_int a.seq);
        check_int "ACK ack" 1002 (Seq32.to_int a.ack);
        check_int "ACK window" 65535 a.window)
      [ a0; a1 ];
    check_int "re-ACK at the retransmission" t1 at1
  | l -> Alcotest.failf "expected two ACKs of the FIN, got %d" (List.length l));
  check_int "no RST" 0 !rsts_out;
  let server = Host.tcp lan.server in
  let two_msl = 2 * pinned.msl in
  World.run lan.world ~for_:(t1 + two_msl - 1 - World.now lan.world);
  check_int "still in TIME_WAIT 2 MSL after the first FIN" 1
    (Stack.connection_count server);
  World.run lan.world ~for_:1;
  check_int "gone 2 MSL after the retransmitted one" 0
    (Stack.connection_count server)

(* The client's last data and its FIN arrive in one segment, ahead of a
   lost segment, while the server stays in CLOSE_WAIT.  When the
   retransmission fills the gap, the server acknowledges the data and
   the FIN with one ACK, at once, and no delayed ACK repeats it.  10 kB
   outrun the initial window, so the FIN rides the last data segment. *)
let test_fin_with_data_acked_once () =
  let n = 10_000 in
  let lan = make_simple_lan ~tcp_config:pinned () in
  let server = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun s ->
      server := Some s);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () ->
      send_all ~close:true c (String.make n 'u'));
  let client_addr = Host.addr lan.client in
  (* ISS 1000: the data is 1001 to 1000 + n and the FIN 1001 + n *)
  let fin_ack = 1002 + n in
  let data_fins = ref 0 and acks = ref 0 and lost = ref false in
  let dropped =
    drop_rx lan.server ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg when Ipaddr.equal pkt.src client_addr && seg.payload <> "" ->
          if seg.flags.fin then incr data_fins;
          (* the first segment ending in the last 2000 bytes, once *)
          let ends = Seq32.to_int seg.seq + String.length seg.payload in
          let drop =
            (not !lost) && (not seg.flags.fin) && ends > fin_ack - 2000
          in
          if drop then lost := true;
          drop
        | Tcp _ | Raw _ -> false)
  in
  tap_tx lan.server ~f:(fun pkt ->
      match pkt.Ipv4_packet.payload with
      | Tcp seg when pure_ack seg && Seq32.to_int seg.ack = fin_ack ->
        incr acks
      | _ -> ());
  World.run lan.world ~for_:(Time.ms 500);
  check_int "one segment lost" 1 !dropped;
  check_int "data and FIN in one segment" 1 !data_fins;
  (match !server with
  | Some s ->
    check_bool "server in CLOSE_WAIT" true (Tcb.state s = Tcb.Close_wait)
  | None -> Alcotest.fail "no server connection");
  check_int "ACKs of the data and FIN" 1 !acks

(* An application that keeps its handle reads TIME_WAIT, then CLOSED 2 MSL
   after the entry, and hears of the close once, at the entry. *)
let test_time_wait_handle_reads_through () =
  let lan = make_simple_lan ~tcp_config:pinned () in
  let held = ref None and closes = ref [] in
  serve_reply_then_close lan ~on_accept:(fun s ->
      held := Some s;
      Tcb.set_on_close s (fun () -> closes := World.now lan.world :: !closes));
  ignore (client_closing_on_eof lan);
  World.run lan.world ~for_:(Time.ms 100);
  let s = match !held with Some s -> s | None -> Alcotest.fail "no server" in
  check_bool "TIME_WAIT" true (Tcb.state s = Tcb.Time_wait);
  let entered =
    match !closes with [ t ] -> t | _ -> Alcotest.fail "on_close not once"
  in
  check_int "entered TIME_WAIT at" 673_200 entered;
  World.run lan.world
    ~for_:(entered + (2 * pinned.msl) - 1 - World.now lan.world);
  check_bool "TIME_WAIT until 2 MSL" true (Tcb.state s = Tcb.Time_wait);
  World.run lan.world ~for_:1;
  check_bool "CLOSED at 2 MSL" true (Tcb.state s = Tcb.Closed);
  check_int "on_close fired once" 1 (List.length !closes);
  check_int "table empty" 0 (Stack.connection_count (Host.tcp lan.server))

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
    Alcotest.test_case "TIME_WAIT is a compact record" `Quick
      test_time_wait_is_compact;
    Alcotest.test_case "TIME_WAIT re-acks a retransmitted FIN" `Quick
      test_time_wait_reacks_retransmitted_fin;
    Alcotest.test_case "FIN with data is ACKed once" `Quick
      test_fin_with_data_acked_once;
    Alcotest.test_case "TIME_WAIT handle reads through to CLOSED" `Quick
      test_time_wait_handle_reads_through;
  ]
