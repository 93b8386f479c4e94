module Time = Tcpfo_sim.Time
module Ipaddr = Tcpfo_packet.Ipaddr
module Seg = Tcpfo_packet.Tcp_segment
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Ip_layer = Tcpfo_ip.Ip_layer
module Eth_iface = Tcpfo_ip.Eth_iface
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry

type mode = Normal | Paused | Taken_over

type t = {
  host : Host.t;
  registry : Failover_config.registry;
  service_addr : Ipaddr.t;
  mutable divert_to : Ipaddr.t;
  only_new : bool;
      (* reintegrated secondary: claim only connections its own stack
         knows (or fresh SYNs) — pre-existing connections belong solely to
         the primary and must not be answered with RSTs *)
  mutable mode : mode;
  held : Ipv4_packet.t Queue.t;
  mutable installed : bool;
  obs : Obs.t; (* world-absolute [bridge.secondary] scope *)
  claimed : Registry.counter;
  diverted : Registry.counter;
  held_segments : Registry.counter;
  held_bytes : Registry.gauge;
}

let config t = Failover_config.config t.registry

let is_failover t ~local_port ~remote_port =
  Failover_config.is_failover_conn t.registry ~local_port ~remote_port

let now t = (Host.clock t.host).now ()

(* §3.1: divert a reply to the primary, recording the original
   destination in a TCP header option.  (On a byte-encoded segment this
   is where the incremental checksum update of §3.1 happens; see
   Wire.rewrite_dst_ip, validated in the test suite.) *)
let divert t (pkt : Ipv4_packet.t) (seg : Seg.t) =
  Registry.Counter.incr t.diverted;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~at:(now t)
      (Event.Divert { host = Host.name t.host; orig_dst = pkt.dst; seg });
  let seg' =
    { seg with Seg.options = Seg.Orig_dst pkt.dst :: seg.options }
  in
  Ip_layer.Tx_pass
    (Ipv4_packet.make ~ident:pkt.ident ~src:(Host.addr t.host)
       ~dst:t.divert_to (Ipv4_packet.Tcp seg'))

let tx_hook t (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Tcp seg
    when Ipaddr.equal pkt.src t.service_addr
         && is_failover t ~local_port:seg.src_port ~remote_port:seg.dst_port
    -> (
    match t.mode with
    | Normal -> divert t pkt seg
    | Paused ->
      (* §5 step 1: stop sending segments addressed to the client until
         the IP takeover completes. *)
      Registry.Counter.incr t.held_segments;
      Registry.Gauge.add t.held_bytes (Seg.payload_length seg);
      if Obs.tracing t.obs then
        Obs.emit t.obs ~at:(now t)
          (Event.Hold
             { host = Host.name t.host; bytes = Seg.payload_length seg });
      Queue.push pkt t.held;
      Ip_layer.Tx_drop
    | Taken_over -> Ip_layer.Tx_pass pkt)
  | Tcp _ | Raw _ -> Ip_layer.Tx_pass pkt

let rx_hook t (pkt : Ipv4_packet.t) ~link_addressed =
  match pkt.payload with
  | Tcp seg
    when Ipaddr.equal pkt.dst t.service_addr
         && is_failover t ~local_port:seg.dst_port ~remote_port:seg.src_port
    -> (
    match t.mode with
    | Normal | Paused ->
      (* §3.1: claim the datagram for local delivery — conceptually the
         a_p → a_s destination translation.  [link_addressed] datagrams
         also land here (the primary's bridge answering a stray FIN frames
         the reply to our MAC). *)
      let known_or_new =
        (not t.only_new)
        || (seg.flags.syn && not seg.flags.ack)
        || Stack.mem (Host.tcp t.host)
             ~local:(pkt.dst, seg.dst_port)
             ~remote:(pkt.src, seg.src_port)
      in
      if known_or_new then begin
        Registry.Counter.incr t.claimed;
        Ip_layer.Rx_deliver pkt
      end
      else Ip_layer.Rx_drop
    | Taken_over ->
      (* translation disabled: the service address is now a local alias
         and normal delivery applies *)
      Ip_layer.Rx_pass pkt)
  | Tcp _ | Raw _ ->
    ignore link_addressed;
    Ip_layer.Rx_pass pkt

let install host ~registry ~service_addr ?divert_to
    ?(only_new_connections = false) () =
  let obs = Obs.scope (Obs.root (Host.obs host)) "bridge.secondary" in
  let t =
    {
      host;
      registry;
      service_addr;
      divert_to = (match divert_to with Some a -> a | None -> service_addr);
      only_new = only_new_connections;
      mode = Normal;
      held = Queue.create ();
      installed = true;
      obs;
      claimed = Obs.counter obs "claimed";
      diverted = Obs.counter obs "diverted";
      held_segments = Obs.counter obs "held_segments";
      held_bytes = Obs.gauge obs "held_bytes";
    }
  in
  Eth_iface.set_promiscuous (Host.eth host) (Some service_addr);
  Stack.set_extra_local (Host.tcp host) (fun ip ->
      Ipaddr.equal ip service_addr);
  Ip_layer.set_tx_hook (Host.ip host) (Some (fun pkt -> tx_hook t pkt));
  Ip_layer.set_rx_hook (Host.ip host)
    (Some (fun pkt ~link_addressed -> rx_hook t pkt ~link_addressed));
  t

let uninstall t =
  if t.installed then begin
    t.installed <- false;
    Eth_iface.set_promiscuous (Host.eth t.host) None;
    Ip_layer.set_tx_hook (Host.ip t.host) None;
    Ip_layer.set_rx_hook (Host.ip t.host) None
  end

let begin_takeover t ~on_complete =
  if t.mode = Normal then begin
    (* §5 step 1: hold outgoing segments *)
    t.mode <- Paused;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~at:(now t)
        (Event.Failover { host = Host.name t.host; phase = Takeover_started });
    ignore
      ((Host.clock t.host).schedule (config t).takeover_processing
         (fun () ->
           (* §5 steps 2-4: disable promiscuous snooping and both
              translations *)
           Eth_iface.set_promiscuous (Host.eth t.host) None;
           (* §5 step 5: IP takeover — alias + gratuitous ARP *)
           Eth_iface.add_address (Host.eth t.host) t.service_addr;
           t.mode <- Taken_over;
           (* release held segments, now sent natively *)
           Queue.iter (fun pkt -> Ip_layer.send (Host.ip t.host) pkt) t.held;
           Queue.clear t.held;
           Registry.Gauge.set t.held_bytes 0;
           if Obs.tracing t.obs then
             Obs.emit t.obs ~at:(now t)
               (Event.Failover
                  { host = Host.name t.host; phase = Takeover_complete });
           on_complete ()))
  end

let retarget t addr =
  let moved = not (Ipaddr.equal t.divert_to addr) in
  t.divert_to <- addr;
  moved

let taken_over t = t.mode = Taken_over
