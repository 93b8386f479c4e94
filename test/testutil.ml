(* Shared helpers for the test suites. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb

(* The clock of a host with no interfaces on [engine]: what a component
   under test schedules through it is guarded as on any host. *)
let host_clock engine =
  Host.clock
    (Host.create engine ~name:"bare" ~rng:(Tcpfo_util.Rng.create ~seed:1) ())

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* [contains hay needle]: [needle] occurs somewhere in [hay] *)
let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Deterministic pseudo-random payload of a given length: byte i of stream
   [tag] is a simple hash, so any corruption or reordering is detected by
   equality on the final string. *)
let pattern ~tag n =
  String.init n (fun i -> Char.chr ((i * 131 + tag * 7 + i / 251) land 0xFF))

(* A simple LAN with a client and one unreplicated server. *)
type simple_lan = {
  world : World.t;
  client : Host.t;
  server : Host.t;
}

let make_simple_lan ?seed ?medium_config ?tcp_config () =
  let world = World.create ?seed () in
  let lan = World.make_lan world ?config:medium_config () in
  let client =
    World.add_host world lan ~name:"client" ~addr:"10.0.0.10" ?tcp_config ()
  in
  let server =
    World.add_host world lan ~name:"server" ~addr:"10.0.0.1" ?tcp_config ()
  in
  World.warm_arp [ client; server ];
  { world; client; server }

(* Collects everything a connection receives, and completion events. *)
type sink = {
  buf : Buffer.t;
  mutable eof : bool;
  mutable resets : int;
  mutable established : bool;
}

let make_sink () =
  { buf = Buffer.create 256; eof = false; resets = 0; established = false }

let wire_sink sink (tcb : Tcb.t) =
  Tcb.set_on_established tcb (fun () -> sink.established <- true);
  Tcb.set_on_data tcb (fun s -> Buffer.add_string sink.buf s);
  Tcb.set_on_eof tcb (fun () -> sink.eof <- true);
  Tcb.set_on_reset tcb (fun () -> sink.resets <- sink.resets + 1)

let sink_contents sink = Buffer.contents sink.buf

(* Pump [data] into [tcb] respecting backpressure, then optionally close. *)
let send_all ?(close = false) (tcb : Tcb.t) data =
  let off = ref 0 in
  let rec pump () =
    if !off < String.length data then begin
      let n = Tcb.send tcb (String.sub data !off (String.length data - !off)) in
      off := !off + n;
      if !off < String.length data then Tcb.set_on_drain tcb pump
      else if close then Tcb.close tcb
    end
    else if close then Tcb.close tcb
  in
  pump ()

(* Start an echo-free sink server: accepts one connection, records it. *)
let run_until_idle world = World.run_until_idle world

(* ------------------------------------------------------------------ *)
(* Replicated-server topologies                                       *)

module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Ip_layer = Tcpfo_ip.Ip_layer
module Ipv4_packet = Tcpfo_packet.Ipv4_packet

type repl_lan = {
  rworld : World.t;
  rlan : Tcpfo_net.Medium.t;
  rclient : Host.t;
  primary : Host.t;
  secondary : Host.t;
  repl : Replicated.t;
}

let make_repl_lan ?seed ?medium_config ?client_tcp_config ?primary_tcp_config
    ?secondary_tcp_config ?(config = Failover_config.default) () =
  let world = World.create ?seed () in
  let lan = World.make_lan world ?config:medium_config () in
  let rclient =
    World.add_host world lan ~name:"client" ~addr:"10.0.0.10"
      ?tcp_config:client_tcp_config ()
  in
  let primary =
    World.add_host world lan ~name:"primary" ~addr:"10.0.0.1"
      ?tcp_config:primary_tcp_config ()
  in
  let secondary =
    World.add_host world lan ~name:"secondary" ~addr:"10.0.0.2"
      ?tcp_config:secondary_tcp_config ()
  in
  World.warm_arp [ rclient; primary; secondary ];
  let repl = Replicated.create ~primary ~secondary ~config () in
  { rworld = world; rlan = lan; rclient; primary; secondary; repl }

(* A deterministic request/reply service: accumulate request bytes; once
   [request_size] bytes have arrived, send back [reply_of] applied to the
   whole request, then close if [close_after].  Identical on both
   replicas. *)
let echo_service ?(close_after = false) ~request_size ~reply_of repl ~port
    ~sinks () =
  Replicated.listen repl ~port ~on_accept:(fun ~role tcb ->
      let got = Buffer.create 256 in
      let sink = make_sink () in
      sinks := (role, sink) :: !sinks;
      wire_sink sink tcb;
      Tcb.set_on_data tcb (fun data ->
          Buffer.add_string sink.buf data;
          Buffer.add_string got data;
          if Buffer.length got = request_size then begin
            let reply = reply_of (Buffer.contents got) in
            send_all ~close:close_after tcb reply
          end);
      Tcb.set_on_eof tcb (fun () ->
          sink.eof <- true;
          if not close_after then Tcb.close tcb))

(* Wrap a host's rx hook with a drop filter (composes with bridges). *)
let drop_rx host ~pred =
  let dropped = ref 0 in
  let inner = Ip_layer.rx_hook (Host.ip host) in
  Ip_layer.set_rx_hook (Host.ip host)
    (Some
       (fun pkt ~link_addressed ->
         if pred pkt then begin
           incr dropped;
           Ip_layer.Rx_drop
         end
         else
           match inner with
           | None -> Ip_layer.Rx_pass pkt
           | Some hook -> hook pkt ~link_addressed));
  dropped

(* An ACK that carries nothing else: no data, SYN, FIN or RST. *)
let pure_ack (seg : Tcpfo_packet.Tcp_segment.t) =
  seg.flags.ack && (not seg.flags.syn) && (not seg.flags.fin)
  && (not seg.flags.rst) && seg.payload = ""

(* Every TCP segment [host] receives from [src], with its arrival
   instant, in arrival order. *)
let tcp_rx_from world host ~src =
  let got = ref [] in
  let _ =
    drop_rx host ~pred:(fun pkt ->
        (match pkt.Ipv4_packet.payload with
        | Tcp seg when Tcpfo_packet.Ipaddr.equal pkt.src src ->
          got := (World.now world, seg) :: !got
        | _ -> ());
        false)
  in
  fun () -> List.rev !got

(* Wrap a host's tx hook with a tap (observes, optionally drops). *)
let tap_tx host ~f =
  let inner = Ip_layer.tx_hook (Host.ip host) in
  Ip_layer.set_tx_hook (Host.ip host)
    (Some
       (fun pkt ->
         f pkt;
         match inner with
         | None -> Ip_layer.Tx_pass pkt
         | Some hook -> hook pkt))

(* Replicated worlds never go idle (heartbeats are perpetual): run them
   for a bounded amount of simulated time instead. *)
let run_repl ?(for_sec = 30.0) r =
  World.run r.rworld ~for_:(Time.sec for_sec)
