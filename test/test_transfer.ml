(* The streaming hot-state-transfer protocol (lib/statex Transfer):
   chunking under the MSS bound, reassembly under duplication and
   reordering, resume across a partition, the bounded retry budget, the
   input-retention budget, and the repair-time ARP hygiene the transfer
   path depends on. *)

open Testutil
module Ipaddr = Tcpfo_packet.Ipaddr
module Eth_frame = Tcpfo_packet.Eth_frame
module Capture = Tcpfo_net.Capture
module Transfer = Tcpfo_statex.Transfer
module Snapshot = Tcpfo_statex.Snapshot
module Seq32 = Tcpfo_util.Seq32
module Seg = Tcpfo_packet.Tcp_segment
module Tcp_config = Tcpfo_tcp.Tcp_config
module Registry = Tcpfo_obs.Registry
module Soak = Tcpfo_fault.Soak
module Hot_transfer = Tcpfo_core.Hot_transfer

let counter world name = Registry.counter_value (World.metrics world) name

(* A transferable connection image whose encoded size we can steer via
   the send-buffer payload. *)
let mk_conn ?(size = 8_000) () =
  let iss = Seq32.of_int 1000 in
  {
    Snapshot.tcb =
      {
        Tcb.sn_state = Tcb.Established;
        sn_local = (Ipaddr.of_string "10.0.0.1", 80);
        sn_remote = (Ipaddr.of_string "10.0.0.10", 4000);
        sn_iss = iss;
        sn_sndbuf_start = 0;
        sn_sndbuf_data = pattern ~tag:9 size;
        sn_snd_una = iss;
        sn_snd_max = iss;
        sn_snd_wnd = 65535;
        sn_snd_wl1 = Seq32.zero;
        sn_snd_wl2 = Seq32.zero;
        sn_peer_mss = 1460;
        sn_fin_queued = false;
        sn_fin_sent = false;
        sn_irs = Seq32.zero;
        sn_rcv_nxt = Seq32.zero;
        sn_reasm = [];
        sn_rcv_fin = None;
        sn_eof_signalled = false;
        sn_srtt = None;
        sn_rttvar = 0.0;
        sn_rto_base = Time.sec 1.0;
        sn_rto_shift = 0;
        sn_cwnd = 2920;
        sn_ssthresh = 1 lsl 30;
        sn_retained_input = [];
        sn_replay_base = 0;
      };
    role = `Server;
    delta = 0;
    next_wire_seq = iss;
    held_segments = 0;
    solo = false;
  }

(* Two plain hosts with a Transfer endpoint each; the receiver records
   every conn its installer is handed.  The medium is exposed so tests
   can capture the control channel. *)
type xfer_pair = {
  xworld : World.t;
  xmedium : Tcpfo_net.Medium.t;
  ha : Host.t;
  hb : Host.t;
  xa : Transfer.t;
  xb : Transfer.t;
  installed : Snapshot.conn list ref;
}

let mk_pair () =
  let xworld = World.create () in
  let xmedium = World.make_lan xworld () in
  let ha = World.add_host xworld xmedium ~name:"a" ~addr:"10.0.0.1" () in
  let hb = World.add_host xworld xmedium ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ ha; hb ];
  let xa = Transfer.attach ha in
  let xb = Transfer.attach hb in
  let installed = ref [] in
  Transfer.set_installer xb (fun ~src:_ conn ->
      installed := conn :: !installed;
      Ok ());
  { xworld; xmedium; ha; hb; xa; xb; installed }

let statex_capture p =
  Capture.start (World.engine p.xworld) p.xmedium
    ~filter:(fun f ->
      match f.Eth_frame.payload with
      | Eth_frame.Ip { Ipv4_packet.payload = Ipv4_packet.Raw { proto; _ }; _ }
        ->
        proto = Transfer.proto
      | _ -> false)
    ()

let raw_sizes cap =
  List.filter_map
    (fun { Capture.frame; _ } ->
      match frame.Eth_frame.payload with
      | Eth_frame.Ip { Ipv4_packet.payload = Ipv4_packet.Raw { data; _ }; _ }
        ->
        Some (String.length data)
      | _ -> None)
    (Capture.records cap)

(* -- chunking ----------------------------------------------------------- *)

let test_chunked_within_mss () =
  let p = mk_pair () in
  let cap = statex_capture p in
  let conn = mk_conn ~size:8_000 () in
  let payload_len = String.length (Snapshot.encode conn) in
  let result = ref None in
  Transfer.offer p.xa ~dst:(Host.addr p.hb) conn ~on_result:(fun r ->
      result := Some r);
  World.run_until_idle p.xworld;
  check_bool "transfer accepted" true (!result = Some (Ok ()));
  check_int "installed exactly once" 1 (List.length !(p.installed));
  check_bool "installed image matches the offered one" true
    (!(p.installed) = [ conn ]);
  let sizes = raw_sizes cap in
  check_bool "snapshot crossed in several installments" true
    (payload_len > Transfer.max_datagram_bytes && List.length sizes > 2);
  List.iter
    (fun n ->
      if n > Transfer.max_datagram_bytes then
        Alcotest.failf "transfer datagram of %d B exceeds the MSS bound" n)
    sizes;
  let stats = Transfer.stats p.xa in
  check_int "no retransmissions on a clean LAN" 0
    stats.Transfer.chunk_retransmits;
  check_int "no timeouts" 0 stats.Transfer.timeouts;
  Capture.stop cap

(* -- reassembly edge cases ---------------------------------------------- *)

(* Hand-craft the receiver's datagrams so duplication and reordering are
   exact, not probabilistic. *)
let send_raw src dst msg =
  Ip_layer.send (Host.ip src)
    (Ipv4_packet.make ~src:(Host.addr src) ~dst
       (Ipv4_packet.Raw
          { proto = Transfer.proto; data = Transfer.encode [ msg ] }))

let test_duplicate_and_reordered_chunks () =
  let p = mk_pair () in
  let conn = mk_conn ~size:2_000 () in
  let payload = Snapshot.encode conn in
  let n = String.length payload in
  let piece = (n + 2) / 3 in
  let chunk seq =
    let lo = seq * piece in
    Transfer.Chunk
      {
        xfer_id = 7777;
        seq;
        total = 3;
        data = String.sub payload lo (min piece (n - lo));
      }
  in
  let dst = Host.addr p.hb in
  (* duplicate of 0, then 2 before 1 *)
  send_raw p.ha dst (chunk 0);
  send_raw p.ha dst (chunk 0);
  send_raw p.ha dst (chunk 2);
  send_raw p.ha dst (chunk 1);
  World.run_until_idle p.xworld;
  check_int "installed exactly once" 1 (List.length !(p.installed));
  check_bool "reassembled image structurally intact" true
    (!(p.installed) = [ conn ]);
  let stats = Transfer.stats p.xb in
  check_bool "duplicate was counted" true
    (stats.Transfer.duplicate_chunks >= 1);
  (* a retransmitted installment arriving after the verdict re-elicits
     the verdict instead of reinstalling the connection *)
  send_raw p.ha dst (chunk 1);
  World.run_until_idle p.xworld;
  check_int "verdict kept, no second install" 1 (List.length !(p.installed))

let test_corrupt_datagram_counted () =
  let p = mk_pair () in
  Ip_layer.send (Host.ip p.ha)
    (Ipv4_packet.make ~src:(Host.addr p.ha) ~dst:(Host.addr p.hb)
       (Ipv4_packet.Raw { proto = Transfer.proto; data = "not a sealed msg" }));
  World.run_until_idle p.xworld;
  check_int "nothing installed" 0 (List.length !(p.installed));
  check_int "corruption counted at the receiver" 1
    (counter p.xworld "host.b.ip.malformed.statex");
  check_int "nothing counted at the sender" 0
    (counter p.xworld "host.a.ip.malformed.statex")

(* -- bundles ---------------------------------------------------------------- *)

(* [k] single-installment offers made in one batch, as the reintegration
   scheduler makes the offers of one pace tick; returns their verdicts
   in offer order once the world is idle. *)
let offer_batch p ~k ~size =
  let results = Array.make k None in
  Transfer.batch p.xa (fun () ->
      for i = 0 to k - 1 do
        Transfer.offer p.xa ~dst:(Host.addr p.hb) (mk_conn ~size ())
          ~on_result:(fun r -> results.(i) <- Some r)
      done);
  World.run p.xworld ~for_:(Time.sec 2.0);
  Array.to_list results

let statex_pkt (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Ipv4_packet.Raw { proto; data } when proto = Transfer.proto -> Some data
  | _ -> None

(* Let [f] rewrite ([Some data]) or drop ([None]) the first statex
   datagram [host] receives. *)
let tamper_first host f =
  let fired = ref false in
  Ip_layer.set_rx_hook (Host.ip host)
    (Some
       (fun pkt ~link_addressed:_ ->
         match statex_pkt pkt with
         | Some data when not !fired -> (
           fired := true;
           match f data with
           | None -> Ip_layer.Rx_drop
           | Some data ->
             Ip_layer.Rx_pass
               { pkt with
                 Ipv4_packet.payload =
                   Ipv4_packet.Raw { proto = Transfer.proto; data } })
         | _ -> Ip_layer.Rx_pass pkt))

let all_accepted results =
  List.for_all (fun r -> r = Some (Ok ())) results

(* Uniform snapshots fill each bundle greedily: as many installments as
   the 1460-byte bound admits, every datagram within it, one datagram of
   verdicts back per bundle. *)
let test_bundles_fill_within_bound () =
  let p = mk_pair () in
  let cap = statex_capture p in
  let k = 40 and size = 100 in
  let results = offer_batch p ~k ~size in
  check_bool "every offer accepted" true (all_accepted results);
  check_int "installed once each" k (List.length !(p.installed));
  let sizes = raw_sizes cap in
  List.iter
    (fun n ->
      if n > Transfer.max_datagram_bytes then
        Alcotest.failf "bundle of %d B exceeds the datagram bound" n)
    sizes;
  (* a lone installment is its envelope and chunk header around the
     image; in a bundle each costs its chunk header and image, and the
     bundle its envelope, kind byte and u16 count *)
  let image = String.length (Snapshot.encode (mk_conn ~size ())) in
  let seal = 18 in
  let per_msg = Transfer.chunk_overhead - seal + image in
  let per_bundle = (Transfer.max_datagram_bytes - seal - 3) / per_msg in
  check_bool "several installments per bundle" true (per_bundle > 1);
  let bundles = (k + per_bundle - 1) / per_bundle in
  check_int "installment datagrams" bundles
    (List.length (List.filter (fun n -> n > 100) sizes));
  check_int "verdict datagrams, one per bundle" bundles
    (List.length (List.filter (fun n -> n <= 100) sizes));
  check_int "datagrams counted" (2 * bundles)
    (Transfer.stats p.xa).Transfer.datagrams_sent;
  (* the verdicts were the only answers, and they fed the RTT estimate *)
  check_bool "pacing learned from the verdicts" true
    (Transfer.suggested_pace p.xa <> Time.us 200);
  Capture.stop cap

(* A lost or corrupted bundle of installments: every offer in it times
   out on its own RTO, resends and settles; a corrupted bundle counts
   once as malformed. *)
let test_lost_bundle_resends_each_offer () =
  List.iter
    (fun (what, f, malformed) ->
      let p = mk_pair () in
      tamper_first p.hb f;
      let k = 5 in
      let results = offer_batch p ~k ~size:100 in
      check_bool (what ^ ": every offer settles accepted") true
        (all_accepted results);
      check_int (what ^ ": installed once each") k
        (List.length !(p.installed));
      let st = Transfer.stats p.xa in
      check_int (what ^ ": each offer resent its installment") k
        st.Transfer.chunk_retransmits;
      check_int (what ^ ": no timeouts") 0 st.Transfer.timeouts;
      check_int (what ^ ": malformed count") malformed
        (counter p.xworld "host.b.ip.malformed.statex"))
    [
      ("lost", (fun _ -> None), 0);
      ( "corrupted",
        (fun d ->
          let b = Bytes.of_string d in
          Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 1));
          Some (Bytes.to_string b)),
        1 );
    ]

(* A lost bundle of verdicts: each offer's RTO resends its installment,
   which meets the receiver's kept verdict and asks for it again,
   without a second install. *)
let test_lost_verdict_bundle_asked_again () =
  let p = mk_pair () in
  tamper_first p.ha (fun _ -> None);
  let k = 5 in
  let results = offer_batch p ~k ~size:100 in
  check_bool "every offer settles accepted" true (all_accepted results);
  check_int "installed once each, never again" k
    (List.length !(p.installed));
  let st = Transfer.stats p.xb in
  check_int "each resent installment met a kept verdict" k
    st.Transfer.duplicate_chunks;
  check_int "one offer each" k st.Transfer.offers_received

(* The decoder bounds a bundle's message count: fewer than two or more
   than fit the datagram bound is malformed, however validly sealed. *)
let test_bundle_count_bounded () =
  let p = mk_pair () in
  let accept = "\002\000\000\000\001" in
  List.iter
    (fun body ->
      Ip_layer.send (Host.ip p.ha)
        (Ipv4_packet.make ~src:(Host.addr p.ha) ~dst:(Host.addr p.hb)
           (Ipv4_packet.Raw
              { proto = Transfer.proto; data = Tcpfo_statex.Codec.seal body })))
    [ "\004\000\001" ^ accept; "\004\255\255" ^ accept ^ accept ];
  World.run_until_idle p.xworld;
  check_int "both counted malformed" 2
    (counter p.xworld "host.b.ip.malformed.statex")

(* A batch whose body raises still sends what it queued, when the
   exception leaves it, instead of leaving it for a later batch. *)
let test_raising_batch_sends_its_queue () =
  let p = mk_pair () in
  let k = 3 in
  let results = Array.make k None in
  (try
     Transfer.batch p.xa (fun () ->
         for i = 0 to k - 1 do
           Transfer.offer p.xa ~dst:(Host.addr p.hb) (mk_conn ~size:100 ())
             ~on_result:(fun r -> results.(i) <- Some r)
         done;
         raise Exit)
   with Exit -> ());
  check_int "one bundle sent as the batch raised" 1
    (Transfer.stats p.xa).Transfer.datagrams_sent;
  World.run p.xworld ~for_:(Time.sec 2.0);
  check_bool "every offer accepted" true
    (all_accepted (Array.to_list results));
  check_int "none resent" 0 (Transfer.stats p.xa).Transfer.chunk_retransmits

(* -- resume across a partition ------------------------------------------ *)

let test_resume_after_partition () =
  let p = mk_pair () in
  (* a 200 kB send buffer: the image needs over a hundred MSS-sized
     installments, so the partition is guaranteed to open mid-transfer *)
  let conn = mk_conn ~size:200_000 () in
  let total =
    let chunk = Transfer.max_datagram_bytes - Transfer.chunk_overhead in
    let len = String.length (Snapshot.encode conn) in
    (len + chunk - 1) / chunk
  in
  check_bool "needs many installments" true (total > 100);
  let result = ref None in
  Transfer.offer p.xa ~dst:(Host.addr p.hb) conn ~on_result:(fun r ->
      result := Some r);
  ignore
    (Engine.schedule (World.engine p.xworld) ~delay:(Time.us 300) (fun () ->
         Host.set_partitioned p.hb true));
  ignore
    (Engine.schedule (World.engine p.xworld) ~delay:(Time.ms 30) (fun () ->
         Host.set_partitioned p.hb false));
  World.run p.xworld ~for_:(Time.sec 5.0);
  check_bool "transfer completed after the partition healed" true
    (!result = Some (Ok ()));
  check_int "installed exactly once" 1 (List.length !(p.installed));
  check_bool "image intact across the resume" true (!(p.installed) = [ conn ]);
  let stats = Transfer.stats p.xa in
  check_bool "the gap was retransmitted" true
    (stats.Transfer.chunk_retransmits > 0);
  check_int "never gave up" 0 stats.Transfer.timeouts;
  (* resumed, not restarted: far fewer transmissions than two full runs *)
  check_bool "resumed rather than restarted" true
    (stats.Transfer.chunks_sent < 2 * total)

let test_retry_budget_exhausted () =
  let p = mk_pair () in
  Host.set_partitioned p.hb true;
  let result = ref None in
  Transfer.offer p.xa ~dst:(Host.addr p.hb)
    (mk_conn ~size:500 ())
    ~on_result:(fun r -> result := Some r);
  World.run p.xworld ~for_:(Time.sec 3.0);
  (match !result with
  | Some (Error _) -> ()
  | Some (Ok ()) -> Alcotest.fail "transfer to a dead peer succeeded"
  | None -> Alcotest.fail "retry budget never exhausted");
  let stats = Transfer.stats p.xa in
  check_int "timeout counted" 1 stats.Transfer.timeouts;
  check_int "no offer left pending" 0 (Transfer.pending_count p.xa)

(* -- retention budget --------------------------------------------------- *)

let test_retention_overflow_unit () =
  let lan =
    make_simple_lan
      ~tcp_config:{ Tcp_config.default with retention_budget = 1_000 }
      ()
  in
  let server_tcb = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      Tcb.enable_input_retention tcb;
      server_tcb := Some tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:3 600));
  World.run lan.world ~for_:(Time.sec 1.0);
  let s = Option.get !server_tcb in
  check_bool "under budget: still transferable" true
    (Tcb.input_retention_enabled s);
  check_bool "no overflow yet" false (Tcb.input_retention_overflowed s);
  send_all c (pattern ~tag:4 600);
  World.run lan.world ~for_:(Time.sec 1.0);
  check_bool "over budget: retention dropped" false
    (Tcb.input_retention_enabled s);
  check_bool "overflow recorded" true (Tcb.input_retention_overflowed s);
  check_bool "overflow surfaced in metrics" true
    (counter lan.world "statex.retention_overflows" >= 1);
  (* permanently: a partial history must never be replayed *)
  Tcb.enable_input_retention s;
  check_bool "re-enabling after overflow is a no-op" false
    (Tcb.input_retention_enabled s)

let test_retention_overflow_isolates () =
  (* an overflowed connection must be excluded from hot state transfer
     at reintegration and keep serving solo *)
  let world = World.create () in
  let lan_medium = World.make_lan world () in
  let budget = { Tcp_config.default with retention_budget = 1_000 } in
  let client =
    World.add_host world lan_medium ~name:"client" ~addr:"10.0.0.10" ()
  in
  let primary =
    World.add_host world lan_medium ~name:"primary" ~addr:"10.0.0.1"
      ~tcp_config:budget ()
  in
  let secondary =
    World.add_host world lan_medium ~name:"secondary" ~addr:"10.0.0.2"
      ~tcp_config:budget ()
  in
  World.warm_arp [ client; primary; secondary ];
  let repl =
    Replicated.create ~primary ~secondary
      ~config:Tcpfo_core.Failover_config.default ()
  in
  let isolated_ports = ref [] in
  Replicated.set_on_event repl (function
    | Replicated.Isolated { local_port; state; _ } ->
      isolated_ports :=
        (local_port, Tcb.state_to_string state) :: !isolated_ports
    | _ -> ());
  (* reply "done" after every 1200 request bytes — deterministic on both
     replicas regardless of segment boundaries *)
  Replicated.listen repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      let got = ref 0 in
      Tcb.set_on_data tcb (fun d ->
          got := !got + String.length d;
          if !got mod 1_200 = 0 then ignore (Tcb.send tcb "done")));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp client)
      ~remote:(Replicated.service_addr repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:5 1_200));
  World.run world ~for_:(Time.sec 1.0);
  check_string "service replied" "done" (sink_contents csink);
  (* the 1200 request bytes overflowed the 1000 B retention budget *)
  check_bool "overflow recorded on the pair" true
    (counter world "statex.retention_overflows" >= 1);
  Replicated.kill_secondary repl;
  World.run world ~for_:(Time.sec 2.0);
  check_bool "secondary failure detected" true
    (Replicated.status repl = `Secondary_failed);
  let fresh =
    World.add_host world lan_medium ~name:"repaired" ~addr:"10.0.0.3"
      ~tcp_config:budget ()
  in
  World.warm_arp [ client; primary; secondary; fresh ];
  Replicated.reintegrate repl ~secondary:fresh;
  World.run world ~for_:(Time.sec 2.0);
  check_int "transfers settled" 0 (Replicated.pending_transfers repl);
  check_int "no transfer failures" 0 (Replicated.transfer_failures repl);
  let stats = Replicated.transfer_stats repl in
  check_int "the overflowed conn was never offered" 0
    stats.Tcpfo_statex.Transfer.offers_sent;
  (* the solo demotion is announced, per connection with the state it was
     pinned in, and counted *)
  Alcotest.(check (list (pair int string)))
    "Isolated event named the connection" [ (80, "ESTABLISHED") ]
    !isolated_ports;
  check_bool "isolation surfaced in metrics" true
    (counter world "statex.isolated_conns" >= 1);
  (* ...and it still serves, solo, after reintegration *)
  send_all c (pattern ~tag:6 1_200);
  World.run world ~for_:(Time.sec 2.0);
  check_string "solo conn still served after reintegration" "donedone"
    (sink_contents csink);
  check_int "never reset" 0 csink.resets

(* -- checkpoints -------------------------------------------------------- *)

let test_checkpoint_truncates_unit () =
  let lan =
    make_simple_lan
      ~tcp_config:{ Tcp_config.default with retention_budget = 2_000 }
      ()
  in
  let server_tcb = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      Tcb.enable_input_retention tcb;
      server_tcb := Some tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:11 1_200));
  World.run lan.world ~for_:(Time.sec 1.0);
  let s = Option.get !server_tcb in
  check_int "history retained" 1_200 (Tcb.retained_input_bytes s);
  check_int "base still zero" 0 (Tcb.replay_base s);
  Tcb.checkpoint s;
  check_int "history truncated" 0 (Tcb.retained_input_bytes s);
  check_int "base advanced to the boundary" 1_200 (Tcb.replay_base s);
  check_bool "still transferable" true (Tcb.input_retention_enabled s);
  check_bool "checkpoint counted" true
    (counter lan.world "statex.checkpoints" >= 1);
  check_int "truncated bytes accounted" 1_200
    (counter lan.world "statex.retention_truncated_bytes");
  (* a second 1200-byte burst would overflow the 2000 B budget if the
     checkpoint had not truncated the history *)
  send_all c (pattern ~tag:12 1_200);
  World.run lan.world ~for_:(Time.sec 1.0);
  check_bool "no overflow" false (Tcb.input_retention_overflowed s);
  check_int "only the suffix is retained" 1_200 (Tcb.retained_input_bytes s);
  (* and the snapshot is the delta form: base + post-checkpoint suffix *)
  let snap = Tcb.snapshot s in
  check_int "snapshot carries the base" 1_200 snap.Tcb.sn_replay_base;
  check_int "snapshot ships only the suffix" 1_200
    (List.fold_left
       (fun a chunk -> a + String.length chunk)
       0 snap.Tcb.sn_retained_input)

let test_checkpoint_resurrects_after_overflow () =
  let lan =
    make_simple_lan
      ~tcp_config:{ Tcp_config.default with retention_budget = 1_000 }
      ()
  in
  let server_tcb = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      Tcb.enable_input_retention tcb;
      server_tcb := Some tcb);
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:13 1_200));
  World.run lan.world ~for_:(Time.sec 1.0);
  let s = Option.get !server_tcb in
  check_bool "overflowed" true (Tcb.input_retention_overflowed s);
  check_bool "not transferable" false (Tcb.input_retention_enabled s);
  (* plain re-enabling stays a no-op, but a checkpoint carries the
     application's declaration that the lost prefix is unnecessary *)
  Tcb.checkpoint s;
  check_bool "overflow cleared" false (Tcb.input_retention_overflowed s);
  check_bool "transferable again" true (Tcb.input_retention_enabled s);
  check_int "base covers everything delivered so far" 1_200
    (Tcb.replay_base s);
  send_all c (pattern ~tag:14 600);
  World.run lan.world ~for_:(Time.sec 1.0);
  check_bool "still no overflow" false (Tcb.input_retention_overflowed s);
  check_int "suffix retained from the resurrection point" 600
    (Tcb.retained_input_bytes s);
  check_int "base unchanged by retained deliveries" 1_200 (Tcb.replay_base s)

let test_checkpointed_conn_survives_repair () =
  (* End-to-end delta reintegration: an application that checkpoints at
     its own safe points keeps a connection transferable through traffic
     exceeding the retention budget, the repair ships the DELTA snapshot
     (base > 0, suffix only), and the restored replica carries the
     session through a second failover byte-exactly. *)
  let budget = { Tcp_config.default with retention_budget = 2_000 } in
  let r =
    make_repl_lan ~primary_tcp_config:budget ~secondary_tcp_config:budget ()
  in
  let isolated = ref 0 in
  Replicated.set_on_event r.repl (function
    | Replicated.Isolated _ -> incr isolated
    | _ -> ());
  let accepted = ref [] in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      accepted := tcb :: !accepted;
      let got = ref 0 in
      Tcb.set_on_data tcb (fun d ->
          got := !got + String.length d;
          if !got mod 1_200 = 0 then begin
            ignore (Tcb.send tcb "done");
            (* request boundary = application safe point *)
            Tcb.checkpoint tcb
          end));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:21 1_200));
  run_repl ~for_sec:1.0 r;
  send_all c (pattern ~tag:22 1_200);
  run_repl ~for_sec:1.0 r;
  (* 2400 B through a 2000 B budget: alive only thanks to checkpoints *)
  check_string "served twice" "donedone" (sink_contents csink);
  check_int "no overflow on either replica" 0
    (counter r.rworld "statex.retention_overflows");
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3"
      ~tcp_config:budget ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; fresh ];
  Replicated.reintegrate r.repl ~secondary:fresh;
  run_repl ~for_sec:2.0 r;
  check_int "transfers settled" 0 (Replicated.pending_transfers r.repl);
  check_int "no transfer failures" 0 (Replicated.transfer_failures r.repl);
  check_int "nothing isolated" 0 !isolated;
  (* the restored copy landed with the delta's replay base *)
  let restored = List.hd !accepted in
  check_int "restored replica replays from the checkpoint" 2_400
    (Tcb.replay_base restored);
  (* second failover onto the delta-restored replica *)
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  send_all c (pattern ~tag:23 1_200);
  run_repl ~for_sec:3.0 r;
  check_string "restored replica continued the session byte-exactly"
    "donedonedone" (sink_contents csink);
  check_int "never reset" 0 csink.resets

(* -- paced offer scheduling --------------------------------------------- *)

(* A block-receipt service: after every [block] request bytes it sends
   "R<k>;".  Output depends only on the input history, so the retained-
   input replay rebuilds it exactly on a restored replica. *)
let receipt_service ~block repl =
  Replicated.listen repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      let got = ref 0 in
      let served = ref 0 in
      Tcb.set_on_data tcb (fun d ->
          got := !got + String.length d;
          while !got >= (!served + 1) * block do
            incr served;
            ignore (Tcb.send tcb (Printf.sprintf "R%d;" !served))
          done))

let test_paced_scheduler_windows_offers () =
  (* More live connections than the offer window, each carrying a
     multi-chunk snapshot: offers must trickle out, the in-flight count
     must reach the window but never exceed it, and every connection
     must still re-replicate and survive a second failover *)
  let r = make_repl_lan () in
  let block = 16_000 in
  receipt_service ~block r.repl;
  let n = Hot_transfer.window + 16 in
  let sinks = Array.init n (fun _ -> make_sink ()) in
  let conns =
    Array.init n (fun i ->
        let c =
          Stack.connect (Host.tcp r.rclient)
            ~remote:(Replicated.service_addr r.repl, 80)
            ()
        in
        wire_sink sinks.(i) c;
        Tcb.set_on_established c (fun () -> send_all c (pattern ~tag:i block));
        c)
  in
  run_repl ~for_sec:2.0 r;
  Array.iter (fun s -> check_string "served" "R1;" (sink_contents s)) sinks;
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  let completed = ref None in
  Replicated.add_on_event r.repl (function
    | Replicated.Transfers_complete k -> completed := Some k
    | _ -> ());
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3" ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; fresh ];
  Replicated.reintegrate r.repl ~secondary:fresh;
  (* sample the channel while the paced transfers drain *)
  let max_inflight = ref 0 in
  while !completed = None && World.now r.rworld < Time.sec 10.0 do
    World.run r.rworld ~for_:(Time.us 10);
    let st = Replicated.transfer_stats r.repl in
    let inflight =
      st.Transfer.offers_sent - st.Transfer.accepts - st.Transfer.rejects
      - st.Transfer.timeouts
    in
    if inflight > !max_inflight then max_inflight := inflight
  done;
  run_repl ~for_sec:2.0 r;
  check_bool "all re-replicated" true (!completed = Some n);
  check_int "no failures" 0 (Replicated.transfer_failures r.repl);
  check_int "window reached, never exceeded" Hot_transfer.window !max_inflight;
  let m = World.metrics r.rworld in
  check_bool "offers were paced" true
    (Registry.counter_value m "statex.paced_offers" >= n - 1);
  check_bool "pace wait accounted" true
    (Registry.counter_value m "statex.pace_wait_us" > 0);
  check_int "queue drained" 0
    (Registry.gauge_value m "statex.transfer_queue_depth");
  (* the paced captures were exact: a second failover onto the restored
     copies continues every session byte-exactly *)
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  Array.iteri (fun i c -> send_all c (pattern ~tag:(i + 100) block)) conns;
  run_repl ~for_sec:3.0 r;
  Array.iter
    (fun s ->
      check_string "continued byte-exactly" "R1;R2;" (sink_contents s);
      check_int "never reset" 0 s.resets)
    sinks

let test_write_during_paced_transfer () =
  (* Regression for capture atomicity: pacing defers offers past the
     reintegration instant, so client bytes land on still-queued
     connections while earlier offers drain.  Each deferred capture
     (quiesce, then Δ, then the TCB image — in that order) must count
     those bytes exactly once, or the restored copy replays them twice
     or loses them. *)
  let r = make_repl_lan () in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d))));
  (* one datagram carries the first installments of several small
     offers, so a handful of connections would all leave in the first
     pace tick: forty keep offers queued while the writes land *)
  let n = 40 in
  let sinks = Array.init n (fun _ -> make_sink ()) in
  let conns =
    Array.init n (fun i ->
        let c =
          Stack.connect (Host.tcp r.rclient)
            ~remote:(Replicated.service_addr r.repl, 80)
            ()
        in
        wire_sink sinks.(i) c;
        Tcb.set_on_established c (fun () ->
            ignore (Tcb.send c (Printf.sprintf "q%d" i)));
        c)
  in
  run_repl ~for_sec:1.0 r;
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3" ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; fresh ];
  Replicated.reintegrate r.repl ~secondary:fresh;
  (* mid-pacing: every client writes at once, and the offer queue still
     holds some of the connections after the writes have landed *)
  Array.iteri (fun i c -> ignore (Tcb.send c (Printf.sprintf "m%d" i))) conns;
  World.run r.rworld ~for_:(Time.us 300);
  check_bool "offers still queued once the writes landed" true
    (Registry.gauge_value (World.metrics r.rworld)
       "statex.transfer_queue_depth"
     > 0);
  run_repl ~for_sec:3.0 r;
  check_int "transfers settled" 0 (Replicated.pending_transfers r.repl);
  check_int "no failures" 0 (Replicated.transfer_failures r.repl);
  Array.iteri
    (fun i s ->
      check_string "mid-pacing write served once"
        (Printf.sprintf "R:q%dR:m%d" i i)
        (sink_contents s))
    sinks;
  (* the decisive check: fail over onto the restored copies — a byte
     double-counted or dropped by a non-atomic capture surfaces as a
     divergent stream here *)
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  Array.iteri (fun i c -> ignore (Tcb.send c (Printf.sprintf "e%d" i))) conns;
  run_repl ~for_sec:3.0 r;
  Array.iteri
    (fun i s ->
      check_string "session continued byte-exactly after the rekill"
        (Printf.sprintf "R:q%dR:m%dR:e%d" i i i)
        (sink_contents s);
      check_int "never reset" 0 s.resets)
    sinks

(* -- role-complete transfer: the §7.2 client role ----------------------- *)

let test_backend_conn_repair_and_rekill () =
  (* A connect_backend connection has an EPHEMERAL local port, so the
     transfer candidate selection must recognise it by its registered
     REMOTE endpoint, ship it at reintegration, and re-run the recorded
     setup on the fresh replica.  Acceptance: the session survives the
     repair AND a second failover byte-exactly, over a single backend
     connection, with nothing isolated. *)
  let r = make_repl_lan () in
  let backend_port = 7000 in
  let accepted = ref 0 in
  let bsink = make_sink () in
  Stack.listen (Host.tcp r.rclient) ~port:backend_port ~on_accept:(fun tcb ->
      incr accepted;
      wire_sink bsink tcb;
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string bsink.buf d;
          ignore (Tcb.send tcb ("ok:" ^ d))));
  let isolated = ref 0 in
  Replicated.set_on_event r.repl (function
    | Replicated.Isolated _ -> incr isolated
    | _ -> ());
  (* one entry per replica instance, newest first: after the repair the
     head is the restored copy living on the fresh host.  The setup
     regenerates its output history ("q1" on established) — during the
     restore replay that re-send is swallowed against the snapshot. *)
  let copies = ref [] in
  Replicated.connect_backend r.repl
    ~remote:(Host.addr r.rclient, backend_port)
    ~setup:(fun ~role:_ tcb ->
      let sink = make_sink () in
      copies := (tcb, sink) :: !copies;
      wire_sink sink tcb;
      Tcb.set_on_established tcb (fun () -> ignore (Tcb.send tcb "q1")))
    ();
  run_repl ~for_sec:2.0 r;
  check_int "backend accepted exactly one connection" 1 !accepted;
  check_string "backend served q1" "q1" (sink_contents bsink);
  check_int "a copy on each replica" 2 (List.length !copies);
  List.iter
    (fun (_, sink) ->
      check_string "every copy got the reply" "ok:q1" (sink_contents sink))
    !copies;
  (* the secondary dies; §6 leaves the primary serving solo *)
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  check_bool "failure detected" true
    (Replicated.status r.repl = `Secondary_failed);
  (* repair: the client-role conn must transfer, not fall solo *)
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3" ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; fresh ];
  Replicated.reintegrate r.repl ~secondary:fresh;
  run_repl ~for_sec:2.0 r;
  check_int "transfers settled" 0 (Replicated.pending_transfers r.repl);
  check_int "no transfer failures" 0 (Replicated.transfer_failures r.repl);
  check_int "nothing isolated" 0 !isolated;
  check_int "setup re-ran on the repaired host" 3 (List.length !copies);
  (* second failover: the original primary dies; the repaired host must
     carry the restored connection forward *)
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  check_bool "takeover by the repaired host" true
    (Replicated.status r.repl = `Primary_failed);
  let restored_tcb, restored_sink = List.hd !copies in
  ignore (Tcb.send restored_tcb "q2");
  run_repl ~for_sec:3.0 r;
  check_string "backend session continued byte-exactly" "q1q2"
    (sink_contents bsink);
  check_string "restored copy replayed history and got the new reply"
    "ok:q1ok:q2" (sink_contents restored_sink);
  check_int "still a single backend connection" 1 !accepted;
  check_int "backend never reset" 0 bsink.resets;
  check_int "restored copy never reset" 0 restored_sink.resets

let test_restored_relay_new_output_not_swallowed () =
  (* Regression for the resume_restored regeneration contract: an
     application that CANNOT regenerate its output (it guards its
     on_data with Tcb.replaying, like a relay fed by another connection)
     must still have its first post-restore sends delivered.  Before the
     fix the leftover resync-skip budget swallowed them. *)
  let r = make_repl_lan () in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun d ->
          if not (Tcb.replaying tcb) then ignore (Tcb.send tcb ("R:" ^ d))));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "one"));
  run_repl ~for_sec:1.0 r;
  check_string "served before any failure" "R:one" (sink_contents csink);
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3" ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; fresh ];
  Replicated.reintegrate r.repl ~secondary:fresh;
  run_repl ~for_sec:2.0 r;
  check_int "transfers settled" 0 (Replicated.pending_transfers r.repl);
  (* second failover: the restored, non-regenerating copy takes over *)
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  ignore (Tcb.send c "two");
  run_repl ~for_sec:3.0 r;
  check_string "new output after the restore reached the client"
    "R:oneR:two" (sink_contents csink);
  check_int "never reset" 0 csink.resets

(* -- a failed transfer releases the hold ------------------------------- *)

(* Each data segment the client received carries the stream bytes at
   its own sequence offset from the first: nothing reached the client in
   a replica's private numbering. *)
let check_wire_space rx ~stream =
  match List.filter (fun (_, (seg : Seg.t)) -> seg.payload <> "") rx with
  | [] -> Alcotest.fail "no data reached the client"
  | (_, (first : Seg.t)) :: _ as segs ->
    List.iter
      (fun (_, (seg : Seg.t)) ->
        let off = Seq32.diff seg.seq first.seq in
        let len = String.length seg.payload in
        check_bool "segment in wire space" true
          (off >= 0
          && off + len <= String.length stream
          && String.equal (String.sub stream off len) seg.payload))
      segs

(* The client's sink, stamped with the instant it holds [total] bytes. *)
let timed_sink world tcb ~total =
  let sink = make_sink () in
  let full_at = ref None in
  wire_sink sink tcb;
  Tcb.set_on_data tcb (fun d ->
      Buffer.add_string sink.buf d;
      if Buffer.length sink.buf >= total && !full_at = None then
        full_at := Some (World.now world));
  (sink, full_at)

(* The held bytes went out with the abort, not with a later
   retransmission: the client had them within a few milliseconds of the
   failed offer's verdict. *)
let check_released_at_abort ~aborted_at ~full_at =
  match (aborted_at, full_at) with
  | Some a, Some f ->
    check_bool "held bytes delivered right after the abort" true
      (f >= a && f - a < Time.ms 5)
  | None, _ -> Alcotest.fail "the offer never failed"
  | _, None -> Alcotest.fail "the held bytes never arrived"

let test_abort_releases_held_output () =
  (* The secondary dies, a repaired host rejoins, and the newcomer dies
     too while its offer is in flight.  The server writes during the
     hold; when the offer fails, the surviving primary's bridge releases
     the held segments through the solo merge path, shifted by -Δseq
     into wire space. *)
  let r = make_repl_lan () in
  let server = ref None in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role tcb ->
      if role = `Primary then server := Some tcb;
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d))));
  let held = pattern ~tag:41 3000 in
  let stream = "R:one" ^ held in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  let csink, full_at = timed_sink r.rworld c ~total:(String.length stream) in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "one"));
  let rx =
    tcp_rx_from r.rworld r.rclient ~src:(Replicated.service_addr r.repl)
  in
  let aborted_at = ref None in
  Replicated.add_on_event r.repl (function
    | Replicated.Isolated _ -> aborted_at := Some (World.now r.rworld)
    | _ -> ());
  run_repl ~for_sec:1.0 r;
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3" ()
  in
  World.warm_arp [ r.rclient; r.primary; fresh ];
  Replicated.rejoin r.repl fresh;
  check_int "offer in flight" 1 (Replicated.pending_transfers r.repl);
  Host.kill fresh;
  ignore (Tcb.send (Option.get !server) held);
  run_repl ~for_sec:5.0 r;
  check_int "the offer failed" 1 (Replicated.transfer_failures r.repl);
  check_string "stream byte-exact" stream (sink_contents csink);
  check_int "never reset" 0 csink.resets;
  check_wire_space (rx ()) ~stream;
  check_released_at_abort ~aborted_at:!aborted_at ~full_at:!full_at

let test_chain_abort_releases_held_output () =
  (* The same on a 3-chain whose tail dies: the middle replica is a
     [Divert_to] merger and the transfer source for the rejoined tail.
     Its held output must travel up to the head with the original
     destination attached, where it merges with the head's own copy. *)
  let module Chain = Tcpfo_core.Chain in
  let world = World.create () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"client" ~addr:"10.0.0.10" () in
  let hosts =
    List.init 3 (fun i ->
        World.add_host world lan
          ~name:(Printf.sprintf "replica%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ())
  in
  World.warm_arp (client :: hosts);
  let chain = Chain.create ~replicas:hosts ~config:Failover_config.default () in
  let servers = Hashtbl.create 4 in
  Chain.listen chain ~port:80 ~on_accept:(fun ~replica tcb ->
      Hashtbl.replace servers replica tcb;
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d))));
  let held = pattern ~tag:42 3000 in
  let stream = "R:one" ^ held in
  let c =
    Stack.connect (Host.tcp client) ~remote:(Chain.service_addr chain, 80) ()
  in
  let csink, full_at = timed_sink world c ~total:(String.length stream) in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "one"));
  let rx = tcp_rx_from world client ~src:(Chain.service_addr chain) in
  let aborted_at = ref None in
  Chain.set_on_event chain (function
    | Chain.Isolated _ -> aborted_at := Some (World.now world)
    | _ -> ());
  World.run world ~for_:(Time.sec 1.0);
  Chain.kill chain 2;
  World.run world ~for_:(Time.sec 2.0);
  let fresh = World.add_host world lan ~name:"repaired" ~addr:"10.0.0.8" () in
  World.warm_arp (fresh :: client :: hosts);
  ignore (Chain.rejoin chain fresh);
  check_int "offer in flight" 1 (Chain.pending_transfers chain);
  Host.kill fresh;
  (* both surviving replicas run the application: the same write *)
  List.iter
    (fun i -> ignore (Tcb.send (Hashtbl.find servers i) held))
    [ 0; 1 ];
  World.run world ~for_:(Time.sec 5.0);
  check_string "stream byte-exact" stream (sink_contents csink);
  check_int "never reset" 0 csink.resets;
  check_wire_space (rx ()) ~stream;
  check_released_at_abort ~aborted_at:!aborted_at ~full_at:!full_at

(* -- repair-time ARP hygiene -------------------------------------------- *)

let test_warm_arp_skips_dead_hosts () =
  (* regression: warming the caches with the corpse still in the host
     list used to re-insert the dead primary's binding for the service
     address, re-poisoning the client after the takeover *)
  let r = make_repl_lan () in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d))));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "one"));
  run_repl ~for_sec:1.0 r;
  check_string "served before the failure" "R:one" (sink_contents csink);
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  check_bool "takeover happened" true
    (Replicated.status r.repl = `Primary_failed);
  (* warm over the corpse: the dead primary still claims the service
     address, but a dead host must neither learn nor teach *)
  World.warm_arp [ r.rclient; r.primary; r.secondary ];
  ignore (Tcb.send c "two");
  run_repl ~for_sec:2.0 r;
  check_string "still served after warming over the corpse" "R:oneR:two"
    (sink_contents csink);
  check_int "never reset" 0 csink.resets

(* -- soak axis sanity --------------------------------------------------- *)

let test_soak_draws_lossy_transfers () =
  let scenarios = List.init 60 (fun i -> Soak.scenario_of_seed (i + 1)) in
  check_bool "some scenario exercises a lossy control channel" true
    (List.exists (fun s -> s.Soak.xfer_loss > 0.0) scenarios);
  List.iter
    (fun s ->
      (* a nonzero loss needs transfers to cover: either an explicit
         repair phase, or a pool whose promotion reintegrates *)
      if
        s.Soak.repair = Soak.No_repair
        && s.Soak.pool = Soak.Pair
        && s.Soak.xfer_loss <> 0.0
      then
        Alcotest.failf "seed %d: loss drawn without a transfer phase"
          s.Soak.seed)
    scenarios

(* A connection the service closed first sits in TIME_WAIT on the
   primary when the secondary is repaired.  Hot state transfer still
   ships it, in the installment bytes pinned below and in two datagrams,
   the installment and the verdict that also acknowledges it, and after
   the primary dies the restored replica answers a late retransmission
   of the client's FIN with an ACK, not an RST. *)
let test_time_wait_conn_ships () =
  let cfg = { Tcp_config.default with iss_override = Some 1000 } in
  let r =
    make_repl_lan ~client_tcp_config:cfg ~primary_tcp_config:cfg
      ~secondary_tcp_config:cfg ()
  in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun _ ->
          send_all ~close:true tcb (pattern ~tag:31 2048)));
  let svc = Replicated.service_addr r.repl in
  let c = Stack.connect (Host.tcp r.rclient) ~remote:(svc, 80) () in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  Tcb.set_on_eof c (fun () -> Tcb.close c);
  run_repl ~for_sec:1.0 r;
  check_bool "client closed" true (Tcb.state c = Tcb.Closed);
  check_int "primary holds it in TIME_WAIT" 1
    (Stack.connection_count (Host.tcp r.primary));
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  let fresh =
    World.add_host r.rworld r.rlan ~name:"repaired" ~addr:"10.0.0.3"
      ~tcp_config:cfg ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; fresh ];
  let cap =
    Capture.start (World.engine r.rworld) r.rlan
      ~filter:(fun f ->
        match f.Eth_frame.payload with
        | Eth_frame.Ip
            { Ipv4_packet.payload = Ipv4_packet.Raw { proto; _ }; _ } ->
          proto = Transfer.proto
        | _ -> false)
      ()
  in
  Replicated.reintegrate r.repl ~secondary:fresh;
  run_repl ~for_sec:2.0 r;
  check_int "transfers settled" 0 (Replicated.pending_transfers r.repl);
  check_int "no transfer failures" 0 (Replicated.transfer_failures r.repl);
  check_int "restored on the repaired replica" 1
    (Stack.connection_count (Host.tcp fresh));
  let datagrams =
    List.filter_map
      (fun { Capture.frame; _ } ->
        match frame.Eth_frame.payload with
        | Eth_frame.Ip
            { Ipv4_packet.payload = Ipv4_packet.Raw { data; _ }; _ } ->
          Some data
        | _ -> None)
      (Capture.records cap)
  in
  check_int "installment and verdict, no separate Ack" 2
    (List.length datagrams);
  (* a lone message's body opens after the 10-byte envelope header with
     its kind byte, 0 for an installment *)
  let kinds = List.map (fun d -> Char.code d.[10]) datagrams in
  Alcotest.(check (list int)) "an installment, then a lone Accept" [ 0; 2 ]
    kinds;
  let chunks = List.filter (fun d -> d.[10] = '\000') datagrams in
  check_string "installment bytes as pinned" "dc746711f2da8615227d1876d2bb32c1"
    (Digest.to_hex (Digest.string (String.concat "" chunks)));
  Replicated.kill_primary r.repl;
  run_repl ~for_sec:2.0 r;
  let answers = tcp_rx_from r.rworld r.rclient ~src:svc in
  let late_fin =
    Seg.make
      ~flags:{ Seg.no_flags with fin = true; ack = true }
      ~seq:(Seq32.add (Tcb.snd_max c) (-1))
      ~ack:(Tcb.rcv_nxt c) ~window:65535
      ~src_port:(snd (Tcb.local_endpoint c))
      ~dst_port:80 ()
  in
  Ip_layer.send_tcp (Host.ip r.rclient) ~src:(Host.addr r.rclient) ~dst:svc
    late_fin;
  run_repl ~for_sec:0.1 r;
  match answers () with
  | [ (_, (a : Seg.t)) ] ->
    check_bool "answered with an ACK" true (a.flags.ack && not a.flags.rst);
    check_int "acking the FIN" (Seq32.to_int (Tcb.snd_max c))
      (Seq32.to_int a.ack)
  | l -> Alcotest.failf "expected one answer, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "chunked transfer stays within the MSS" `Quick
      test_chunked_within_mss;
    Alcotest.test_case "duplicate and reordered chunks reassemble" `Quick
      test_duplicate_and_reordered_chunks;
    Alcotest.test_case "corrupt datagrams are counted, not installed" `Quick
      test_corrupt_datagram_counted;
    Alcotest.test_case "transfer resumes across a partition" `Quick
      test_resume_after_partition;
    Alcotest.test_case "retry budget bounds a dead-peer transfer" `Quick
      test_retry_budget_exhausted;
    Alcotest.test_case "retention budget overflow (unit)" `Quick
      test_retention_overflow_unit;
    Alcotest.test_case "retention overflow isolates the connection" `Quick
      test_retention_overflow_isolates;
    Alcotest.test_case "checkpoint truncates retained input (unit)" `Quick
      test_checkpoint_truncates_unit;
    Alcotest.test_case "checkpoint resurrects retention after overflow"
      `Quick test_checkpoint_resurrects_after_overflow;
    Alcotest.test_case "checkpointed conn ships a delta and survives repair"
      `Quick test_checkpointed_conn_survives_repair;
    Alcotest.test_case "paced scheduler respects the offer window" `Quick
      test_paced_scheduler_windows_offers;
    Alcotest.test_case "client write during paced transfer counted once"
      `Quick test_write_during_paced_transfer;
    Alcotest.test_case "backend conn survives repair and rekill (7.2)" `Quick
      test_backend_conn_repair_and_rekill;
    Alcotest.test_case "restored relay's new output not swallowed" `Quick
      test_restored_relay_new_output_not_swallowed;
    Alcotest.test_case "failed transfer releases held output" `Quick
      test_abort_releases_held_output;
    Alcotest.test_case "failed chain transfer releases held output" `Quick
      test_chain_abort_releases_held_output;
    Alcotest.test_case "warm_arp skips dead hosts" `Quick
      test_warm_arp_skips_dead_hosts;
    Alcotest.test_case "soak seeds draw the lossy-transfer axis" `Quick
      test_soak_draws_lossy_transfers;
    Alcotest.test_case "TIME_WAIT connection ships and answers a late FIN"
      `Quick test_time_wait_conn_ships;
    Alcotest.test_case "bundles fill greedily within the bound" `Quick
      test_bundles_fill_within_bound;
    Alcotest.test_case "a lost or corrupted bundle resends every offer"
      `Quick test_lost_bundle_resends_each_offer;
    Alcotest.test_case "a lost verdict bundle is asked for again" `Quick
      test_lost_verdict_bundle_asked_again;
    Alcotest.test_case "a bundle's message count is bounded" `Quick
      test_bundle_count_bounded;
    Alcotest.test_case "a raising batch still sends its queue" `Quick
      test_raising_batch_sends_its_queue;
  ]
