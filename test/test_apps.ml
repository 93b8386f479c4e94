(* Application-layer tests: line framing, echo, bulk helpers, the FTP
   subset (incl. replicated FTP with failover), and the store demo. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Lineproto = Tcpfo_apps.Lineproto
module Echo = Tcpfo_apps.Echo
module Bulk = Tcpfo_apps.Bulk
module Ftp = Tcpfo_apps.Ftp
module Store = Tcpfo_apps.Store
module Cross_traffic = Tcpfo_apps.Cross_traffic
module Link = Tcpfo_net.Link
open Testutil

(* ---------------- Lineproto ---------------- *)

let test_lineproto_framing () =
  let got = ref [] in
  let lp = Lineproto.create ~on_line:(fun l -> got := l :: !got) in
  Lineproto.feed lp "hello\r\nwor";
  Alcotest.(check (list string)) "first line" [ "hello" ] (List.rev !got);
  Lineproto.feed lp "ld\nlast";
  Alcotest.(check (list string)) "second line" [ "hello"; "world" ]
    (List.rev !got);
  check_string "pending" "last" (Lineproto.pending lp);
  Lineproto.feed lp "\r\n";
  Alcotest.(check (list string)) "third" [ "hello"; "world"; "last" ]
    (List.rev !got)

let test_lineproto_empty_lines () =
  let got = ref [] in
  let lp = Lineproto.create ~on_line:(fun l -> got := l :: !got) in
  Lineproto.feed lp "\n\r\na\n";
  Alcotest.(check (list string)) "empties kept" [ ""; ""; "a" ]
    (List.rev !got)

let prop_lineproto_chunking_irrelevant =
  let gen =
    QCheck.Gen.(
      let* lines =
        list_size (int_range 1 10)
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 20))
      in
      let full = String.concat "\r\n" lines ^ "\r\n" in
      let* cuts = list_size (int_range 0 5) (int_range 1 (String.length full)) in
      return (lines, full, List.sort_uniq compare cuts))
  in
  QCheck.Test.make ~name:"framing independent of chunk boundaries" ~count:200
    (QCheck.make gen) (fun (lines, full, cuts) ->
      let got = ref [] in
      let lp = Lineproto.create ~on_line:(fun l -> got := l :: !got) in
      let rec feed_pieces start = function
        | [] -> Lineproto.feed lp (String.sub full start (String.length full - start))
        | c :: rest when c > start && c < String.length full ->
          Lineproto.feed lp (String.sub full start (c - start));
          feed_pieces c rest
        | _ :: rest -> feed_pieces start rest
      in
      feed_pieces 0 cuts;
      List.rev !got = lines)

(* ---------------- Echo & Bulk ---------------- *)

let test_echo_roundtrip () =
  let lan = make_simple_lan () in
  Echo.serve (Host.tcp lan.server) ~port:7;
  let csink = make_sink () in
  let c = Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 7) () in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping-pong"));
  World.run_until_idle lan.world;
  check_string "echoed" "ping-pong" (sink_contents csink)

let test_bulk_upload_download () =
  let lan = make_simple_lan () in
  let upload_done = ref false and sink_bytes = ref 0 in
  Bulk.Sink.serve (Host.tcp lan.server) ~port:5001
    ~on_complete:(fun ~bytes_received -> sink_bytes := bytes_received)
    ();
  Bulk.Source.serve (Host.tcp lan.server) ~port:5002 ~size:70_000;
  let _up =
    Bulk.upload (Host.tcp lan.client) ~remote:(Host.addr lan.server, 5001)
      ~size:50_000
      ~on_buffered:(fun () -> ())
      ~on_complete:(fun () -> upload_done := true)
      ()
  in
  let down_bytes = ref 0 and down_ok = ref false in
  let _down =
    Bulk.download (Host.tcp lan.client) ~remote:(Host.addr lan.server, 5002)
      ~on_complete:(fun ~bytes_received ~ok ->
        down_bytes := bytes_received;
        down_ok := ok)
      ()
  in
  World.run lan.world ~for_:(Time.sec 60.0);
  check_bool "upload complete" true !upload_done;
  check_int "sink counted upload" 50_000 !sink_bytes;
  check_int "download size" 70_000 !down_bytes;
  check_bool "download content verified" true !down_ok

let test_rr_reply_size () =
  let lan = make_simple_lan () in
  Bulk.Rr.serve (Host.tcp lan.server) ~port:5003 ~reply_size:12_345;
  let received = ref 0 in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 5003) ()
  in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "PING"));
  Tcb.set_on_data c (fun d -> received := !received + String.length d);
  World.run lan.world ~for_:(Time.sec 10.0);
  check_int "reply of configured size" 12_345 !received

(* ---------------- FTP ---------------- *)

let make_ftp_lan () =
  let lan = make_simple_lan () in
  let files =
    Ftp.Server.in_memory
      [ ("readme.txt", "hello ftp"); ("big.bin", pattern ~tag:77 120_000) ]
  in
  Ftp.Server.serve (Host.tcp lan.server) ~bind:(Host.addr lan.server) ~files ();
  (lan, files)

let test_ftp_get () =
  let lan, _files = make_ftp_lan () in
  let result = ref None in
  let _c =
    Ftp.Client.connect (Host.tcp lan.client)
      ~server:(Host.addr lan.server, 21)
      ~local_addr:(Host.addr lan.client)
      ~on_ready:(fun t ->
        Ftp.Client.get t "big.bin" ~on_done:(fun r -> result := Some r) ())
      ()
  in
  World.run lan.world ~for_:(Time.sec 30.0);
  match !result with
  | Some (Some content) ->
    check_string "file content exact" (pattern ~tag:77 120_000) content
  | Some None -> Alcotest.fail "server refused"
  | None -> Alcotest.fail "transfer never completed"

let test_ftp_get_missing () =
  let lan, _ = make_ftp_lan () in
  let result = ref None in
  let _c =
    Ftp.Client.connect (Host.tcp lan.client)
      ~server:(Host.addr lan.server, 21)
      ~local_addr:(Host.addr lan.client)
      ~on_ready:(fun t ->
        Ftp.Client.get t "no-such-file" ~on_done:(fun r -> result := Some r) ())
      ()
  in
  World.run lan.world ~for_:(Time.sec 10.0);
  check_bool "550 reported as None" true (!result = Some None)

let test_ftp_put_then_get () =
  let lan, files = make_ftp_lan () in
  let payload = pattern ~tag:78 40_000 in
  let put_ok = ref false and got_back = ref None in
  let _c =
    Ftp.Client.connect (Host.tcp lan.client)
      ~server:(Host.addr lan.server, 21)
      ~local_addr:(Host.addr lan.client)
      ~on_ready:(fun t ->
        Ftp.Client.put t "upload.bin" payload
          ~on_done:(fun ok ->
            put_ok := ok;
            Ftp.Client.get t "upload.bin"
              ~on_done:(fun r -> got_back := Some r)
              ())
          ())
      ()
  in
  World.run lan.world ~for_:(Time.sec 30.0);
  check_bool "put acknowledged" true !put_ok;
  check_bool "stored server-side" true (files.Ftp.Server.get "upload.bin" = Some payload);
  (match !got_back with
  | Some (Some c) -> check_string "get returns what was put" payload c
  | _ -> Alcotest.fail "get-after-put failed")

let test_ftp_sequential_transfers () =
  let lan, _ = make_ftp_lan () in
  let done_count = ref 0 in
  let _c =
    Ftp.Client.connect (Host.tcp lan.client)
      ~server:(Host.addr lan.server, 21)
      ~local_addr:(Host.addr lan.client)
      ~on_ready:(fun t ->
        (* queue three transfers back to back: each uses a fresh
           server-initiated data connection *)
        Ftp.Client.get t "readme.txt" ~on_done:(fun _ -> incr done_count) ();
        Ftp.Client.get t "big.bin" ~on_done:(fun _ -> incr done_count) ();
        Ftp.Client.put t "x.bin" "xyz" ~on_done:(fun _ -> incr done_count) ())
      ()
  in
  World.run lan.world ~for_:(Time.sec 60.0);
  check_int "all three transfers done" 3 !done_count

let test_ftp_replicated_failover_mid_download () =
  (* the paper's full stack: replicated FTP server; primary dies during a
     download; the data and control connections both survive *)
  let r = make_repl_lan () in
  let big = pattern ~tag:79 300_000 in
  let mk_files () = Ftp.Server.in_memory [ ("big.bin", big) ] in
  Tcpfo_core.Failover_config.register_endpoint
    (Tcpfo_core.Replicated.registry r.repl) ~local_port:21;
  Tcpfo_core.Failover_config.register_endpoint
    (Tcpfo_core.Replicated.registry r.repl) ~local_port:20;
  let service = Tcpfo_core.Replicated.service_addr r.repl in
  Ftp.Server.serve (Host.tcp r.primary) ~bind:service ~files:(mk_files ()) ();
  Ftp.Server.serve (Host.tcp r.secondary) ~bind:service ~files:(mk_files ()) ();
  let result = ref None in
  let _c =
    Ftp.Client.connect (Host.tcp r.rclient) ~server:(service, 21)
      ~local_addr:(Host.addr r.rclient)
      ~on_ready:(fun t ->
        Ftp.Client.get t "big.bin" ~on_done:(fun x -> result := Some x) ())
      ()
  in
  ignore
    (Engine.schedule (World.engine r.rworld) ~delay:(Time.ms 30) (fun () ->
         Tcpfo_core.Replicated.kill_primary r.repl));
  World.run r.rworld ~for_:(Time.sec 60.0);
  match !result with
  | Some (Some content) ->
    check_int "full size across failover" 300_000 (String.length content);
    check_string "byte-exact across failover" big content
  | _ -> Alcotest.fail "download did not complete"

(* ---------------- Store ---------------- *)

let store_session lan ~cmds =
  let replies = ref [] in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 8080) ()
  in
  let lp = Lineproto.create ~on_line:(fun l -> replies := l :: !replies) in
  Tcb.set_on_data c (fun d -> Lineproto.feed lp d);
  Tcb.set_on_established c (fun () ->
      List.iter (fun cmd -> ignore (Tcb.send c (Lineproto.line cmd))) cmds);
  World.run lan.world ~for_:(Time.sec 5.0);
  List.rev !replies

let test_store_protocol () =
  let lan = make_simple_lan () in
  let store = Store.create [ ("widget", 10, 5); ("gadget", 99, 0) ] in
  Store.serve store (Host.tcp lan.server) ~port:8080;
  let replies =
    store_session lan
      ~cmds:
        [ "LIST"; "BUY widget 2"; "BUY widget 9"; "BUY gadget 1";
          "BUY nothing 1"; "BUY widget 0"; "bogus"; "QUIT" ]
  in
  Alcotest.(check (list string))
    "protocol responses"
    [
      "ITEM widget 10 5"; "ITEM gadget 99 0"; ".";
      "OK widget 2 20";
      "ERR out-of-stock";
      "ERR out-of-stock";
      "ERR no-such-item";
      "ERR bad-quantity";
      "ERR bad-command";
      "BYE";
    ]
    replies;
  check_int "stock decremented" 3
    (List.find (fun (i : Store.item) -> i.name = "widget")
       (Store.inventory store))
      .stock

let test_store_replicated_stays_deterministic () =
  (* both replicas process the same session; after a failover the
     survivor's state reflects all purchases *)
  let r = make_repl_lan () in
  Store.serve_replicated ~inventory:[ ("thing", 5, 10) ] r.repl ~port:8080;
  let replies = ref [] in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Tcpfo_core.Replicated.service_addr r.repl, 8080)
      ()
  in
  let lp = Lineproto.create ~on_line:(fun l -> replies := l :: !replies) in
  Tcb.set_on_data c (fun d -> Lineproto.feed lp d);
  Tcb.set_on_established c (fun () ->
      ignore (Tcb.send c (Lineproto.line "BUY thing 4")));
  World.run r.rworld ~for_:(Time.ms 100);
  Tcpfo_core.Replicated.kill_primary r.repl;
  World.run r.rworld ~for_:(Time.sec 2.0);
  ignore (Tcb.send c (Lineproto.line "BUY thing 4"));
  World.run r.rworld ~for_:(Time.sec 2.0);
  ignore (Tcb.send c (Lineproto.line "BUY thing 4"));
  World.run r.rworld ~for_:(Time.sec 2.0);
  Alcotest.(check (list string))
    "purchases span the failover; third fails on stock"
    [ "OK thing 4 20"; "OK thing 4 20"; "ERR out-of-stock" ]
    (List.rev !replies)

(* ---------------- Cross traffic ---------------- *)

let test_cross_traffic_rate () =
  let world = World.create () in
  let link =
    Link.create (World.engine world) ~rng:(World.fresh_rng world)
      { Link.default_config with bandwidth_bps = 1_000_000 }
  in
  let t =
    Cross_traffic.start (World.engine world) link
      ~rng:(World.fresh_rng world) ~load:0.5 ~link_bandwidth_bps:1_000_000
      ~packet_size:1000 ()
  in
  World.run world ~for_:(Time.sec 10.0);
  Cross_traffic.stop t;
  (* 0.5 load on 1 Mb/s with 1020-byte datagrams in both directions:
     ~61 pps per direction, so ~1226 packets in 10 s; allow wide slack *)
  let n = Cross_traffic.packets_injected t in
  check_bool "plausible injection count" true (n > 800 && n < 1800)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "lineproto framing" `Quick test_lineproto_framing;
    Alcotest.test_case "lineproto empty lines" `Quick
      test_lineproto_empty_lines;
    q prop_lineproto_chunking_irrelevant;
    Alcotest.test_case "echo roundtrip" `Quick test_echo_roundtrip;
    Alcotest.test_case "bulk upload/download drivers" `Quick
      test_bulk_upload_download;
    Alcotest.test_case "request/reply server" `Quick test_rr_reply_size;
    Alcotest.test_case "ftp get" `Quick test_ftp_get;
    Alcotest.test_case "ftp get missing file" `Quick test_ftp_get_missing;
    Alcotest.test_case "ftp put then get" `Quick test_ftp_put_then_get;
    Alcotest.test_case "ftp sequential transfers" `Quick
      test_ftp_sequential_transfers;
    Alcotest.test_case "ftp replicated failover mid-download" `Quick
      test_ftp_replicated_failover_mid_download;
    Alcotest.test_case "store protocol" `Quick test_store_protocol;
    Alcotest.test_case "store deterministic across failover" `Quick
      test_store_replicated_stays_deterministic;
    Alcotest.test_case "cross-traffic injection rate" `Quick
      test_cross_traffic_rate;
  ]
