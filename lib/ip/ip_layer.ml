module Clock = Tcpfo_sim.Clock
module Cpu = Tcpfo_sim.Cpu
module Time = Tcpfo_sim.Time
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Tcp_segment = Tcpfo_packet.Tcp_segment
module Link = Tcpfo_net.Link
module Vec = Tcpfo_util.Vec
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry

type iface_kind =
  | Eth of Eth_iface.t
  | Ptp of { ep : Link.endpoint; addr : Ipaddr.t }

type iface = { id : int; kind : iface_kind }

type route = {
  net : Ipaddr.t;
  rprefix : int;
  via : iface;
  gateway : Ipaddr.t option;
}

type tx_verdict = Tx_pass of Ipv4_packet.t | Tx_drop

type rx_verdict =
  | Rx_pass of Ipv4_packet.t
  | Rx_deliver of Ipv4_packet.t
  | Rx_drop

(* One control protocol's owner: [input] decodes a datagram body and
   either hands it to the handler or counts it in [ip.malformed.<name>]. *)
type registration = { r_name : string; input : src:Ipaddr.t -> string -> unit }

type t = {
  clock : Clock.t;
  name : string;
  tx_cost : Time.t;
  rx_cost : Time.t;
  jitter : (unit -> Time.t) option; (* extra per-packet processing noise *)
  cpu : Cpu.t;
  ifaces : iface Vec.t;
  mutable next_iface : int;
  mutable routes : route list;
  (* Per-packet caches.  [route_cache] memoizes the last destination's
     longest-prefix match (traffic is heavily repetitive per host);
     [local_addrs] caches the flattened interface-address list that
     [is_local_address] consults on every rx and tx.  Both are
     invalidated on any interface, address, or route change. *)
  mutable route_cache : (Ipaddr.t * route) option;
  mutable local_addrs : Ipaddr.t list;
  mutable local_addrs_dirty : bool;
  mutable forwarding : bool;
  mutable tcp_handler :
    src:Ipaddr.t -> dst:Ipaddr.t -> Tcp_segment.t -> unit;
  protos : registration option array; (* indexed by IP protocol number *)
  mutable tx_hook : (Ipv4_packet.t -> tx_verdict) option;
  mutable rx_hook :
    (Ipv4_packet.t -> link_addressed:bool -> rx_verdict) option;
  mutable ident : int;
  obs : Obs.t; (* host-level scope; [ip.*] instruments hang below it *)
  n_tx : Registry.counter;
  n_rx : Registry.counter;
  n_forwarded : Registry.counter;
  snoop_busy : Registry.counter;
  mutable wire_roundtrip : bool;
}

let create clock ~name ?(tx_cost = 0) ?(rx_cost = 0) ?jitter ?cpu ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.silent () in
  let ip_obs = Obs.scope obs "ip" in
  {
    clock;
    name;
    tx_cost;
    rx_cost;
    jitter;
    cpu = (match cpu with Some c -> c | None -> Cpu.create clock);
    ifaces = Vec.create ();
    next_iface = 0;
    routes = [];
    route_cache = None;
    local_addrs = [];
    local_addrs_dirty = true;
    forwarding = false;
    tcp_handler = (fun ~src:_ ~dst:_ _ -> ());
    protos = Array.make 256 None;
    tx_hook = None;
    rx_hook = None;
    ident = 1;
    obs;
    n_tx = Obs.counter ip_obs "tx";
    n_rx = Obs.counter ip_obs "rx";
    n_forwarded = Obs.counter ip_obs "forwarded";
    snoop_busy = Obs.counter ip_obs "snoop_busy_ns";
    wire_roundtrip = false;
  }

let name t = t.name
let clock t = t.clock

let invalidate_addr_cache t = t.local_addrs_dirty <- true

let refresh_local_addrs t =
  if t.local_addrs_dirty then begin
    t.local_addrs <-
      List.concat_map
        (fun i ->
          match i.kind with
          | Eth e -> Eth_iface.addresses e
          | Ptp p -> [ p.addr ])
        (Vec.to_list t.ifaces);
    t.local_addrs_dirty <- false
  end

let addresses t =
  refresh_local_addrs t;
  t.local_addrs

let is_local_address t ip =
  refresh_local_addrs t;
  List.exists (Ipaddr.equal ip) t.local_addrs

let set_forwarding t v = t.forwarding <- v
let set_tcp_handler t fn = t.tcp_handler <- fn

let register t ~proto ~name ~decode handler =
  (match t.protos.(proto) with
  | Some r ->
    invalid_arg
      (Printf.sprintf "Ip_layer.register: %s: %s already owns proto %d on %s"
         name r.r_name proto t.name)
  | None -> ());
  let malformed = Obs.counter (Obs.scope t.obs "ip") ("malformed." ^ name) in
  let input ~src data =
    match decode data with
    | Some msg -> handler ~src msg
    | None -> Registry.Counter.incr malformed
  in
  t.protos.(proto) <- Some { r_name = name; input }

let set_tx_hook t h = t.tx_hook <- h
let set_rx_hook t h = t.rx_hook <- h
let tx_hook t = t.tx_hook
let rx_hook t = t.rx_hook

let fresh_ident t =
  let v = t.ident in
  t.ident <- (t.ident + 1) land 0xFFFF;
  v

let add_route t ~net ~prefix ?gateway via =
  t.route_cache <- None;
  t.routes <-
    List.sort
      (fun a b -> compare b.rprefix a.rprefix) (* longest prefix first *)
      ({ net = Ipaddr.network net ~prefix; rprefix = prefix; via; gateway }
      :: t.routes)

let route_for t dst =
  match t.route_cache with
  | Some (d, r) when Ipaddr.equal d dst -> Some r
  | _ ->
    let r =
      List.find_opt
        (fun r -> Ipaddr.same_network r.net dst ~prefix:r.rprefix)
        t.routes
    in
    (match r with
    | Some route -> t.route_cache <- Some (dst, route)
    | None -> ());
    r

let set_wire_roundtrip t v = t.wire_roundtrip <- v

(* Validation mode: serialize the datagram to real octets and parse it
   back; transmit the parsed copy.  The IPv4 header must read back the
   addresses, protocol and total length it was built from. *)
let roundtrip_pkt (pkt : Ipv4_packet.t) =
  let total = Ipv4_packet.wire_length pkt in
  let src, dst, proto, total' =
    Tcpfo_packet.Wire.decode_ipv4_header
      (Tcpfo_packet.Wire.encode_ipv4_header pkt ~payload_len:(total - 20))
  in
  if
    not
      (Ipaddr.equal src pkt.src && Ipaddr.equal dst pkt.dst
      && proto = Ipv4_packet.protocol_number pkt.payload
      && total' = total)
  then raise (Tcpfo_packet.Wire.Malformed "IPv4 header does not round-trip");
  match pkt.payload with
  | Tcp seg ->
    let b = Tcpfo_packet.Wire.encode_tcp ~src_ip:pkt.src ~dst_ip:pkt.dst seg in
    let seg' = Tcpfo_packet.Wire.decode_tcp ~src_ip:pkt.src ~dst_ip:pkt.dst b in
    { pkt with payload = Tcp seg' }
  | Raw _ -> pkt

let transmit t pkt =
  let pkt = if t.wire_roundtrip then roundtrip_pkt pkt else pkt in
  match route_for t pkt.Ipv4_packet.dst with
  | None -> () (* no route: drop *)
  | Some r ->
    Registry.Counter.incr t.n_tx;
    (if Obs.tracing t.obs then
       match pkt.Ipv4_packet.payload with
       | Tcp seg ->
         Obs.emit t.obs ~at:(t.clock.now ())
           (Event.Segment_tx { host = t.name; dst = pkt.Ipv4_packet.dst; seg })
       | Raw _ -> ());
    (match r.via.kind with
    | Ptp p -> Link.send p.ep pkt
    | Eth e ->
      let next_hop =
        match r.gateway with Some g -> g | None -> pkt.Ipv4_packet.dst
      in
      Eth_iface.send_ip e ~next_hop pkt)

(* Local protocol demultiplexing. *)
let deliver t (pkt : Ipv4_packet.t) =
  Registry.Counter.incr t.n_rx;
  (if Obs.tracing t.obs then
     match pkt.payload with
     | Tcp seg ->
       Obs.emit t.obs ~at:(t.clock.now ())
         (Event.Segment_rx { host = t.name; src = pkt.src; seg })
     | Raw _ -> ());
  match pkt.payload with
  | Tcp seg -> t.tcp_handler ~src:pkt.src ~dst:pkt.dst seg
  | Raw { proto; data } -> (
    (* unregistered protocols (cross-traffic) are dropped uncounted *)
    if proto >= 0 && proto < Array.length t.protos then
      match t.protos.(proto) with
      | Some r -> r.input ~src:pkt.src data
      | None -> ())

let forward t (pkt : Ipv4_packet.t) =
  if pkt.ttl > 1 then begin
    Registry.Counter.incr t.n_forwarded;
    transmit t { pkt with ttl = pkt.ttl - 1 }
  end

let process_rx t pkt ~link_addressed =
  let verdict =
    match t.rx_hook with
    | None -> Rx_pass pkt
    | Some hook -> hook pkt ~link_addressed
  in
  match verdict with
  | Rx_drop -> ()
  | Rx_deliver pkt -> deliver t pkt
  | Rx_pass pkt ->
    if is_local_address t pkt.Ipv4_packet.dst then
      (if link_addressed then deliver t pkt)
      (* a promiscuously captured frame for one of our own addresses but a
         foreign MAC is someone else's traffic: ignore unless a hook
         claimed it *)
    else if t.forwarding && link_addressed then forward t pkt
    else ()

let apply_jitter t base =
  match t.jitter with None -> base | Some j -> base + j ()

(* A promiscuously captured datagram addressed to neither one of our
   addresses nor the one the interface snoops for (the service's own
   outbound traffic: the interface's filter has already dropped every
   other) is received and then dropped: no rx hook acts on it
   (DESIGN.md 7.1), so it costs CPU time, counted in
   [ip.snoop_busy_ns], but no event. *)
let rx_entry t ~snooped (pkt : Ipv4_packet.t) ~link_addressed =
  if
    link_addressed
    || (match snooped with Some a -> Ipaddr.equal a pkt.dst | None -> false)
    || is_local_address t pkt.dst
  then
    if t.rx_cost > 0 then
      Cpu.run t.cpu ~cost:(apply_jitter t t.rx_cost) (fun () ->
          process_rx t pkt ~link_addressed)
    else process_rx t pkt ~link_addressed
  else if t.rx_cost > 0 then begin
    let cost = apply_jitter t t.rx_cost in
    Registry.Counter.add t.snoop_busy cost;
    Cpu.charge t.cpu ~cost
  end

let add_iface t kind =
  let i = { id = t.next_iface; kind } in
  t.next_iface <- t.next_iface + 1;
  Vec.push t.ifaces i;
  invalidate_addr_cache t;
  i

let add_eth_iface t e =
  let i = add_iface t (Eth e) in
  Eth_iface.set_on_addr_change e (fun () -> invalidate_addr_cache t);
  Eth_iface.set_rx e (fun pkt ~link_addressed ->
      rx_entry t ~snooped:(Eth_iface.snooped e) pkt ~link_addressed);
  add_route t
    ~net:(Eth_iface.primary_address e)
    ~prefix:(Eth_iface.prefix e) i;
  i

let add_ptp_iface t ep ~addr =
  let i = add_iface t (Ptp { ep; addr }) in
  Link.set_receiver ep (fun pkt ->
      rx_entry t ~snooped:None pkt ~link_addressed:true);
  i


let set_default_route t ~gateway via =
  add_route t ~net:Ipaddr.any ~prefix:0 ~gateway via

let do_send t pkt ~hooked =
  (* Loopback: a datagram to one of our own addresses never touches the
     wire. *)
  if is_local_address t pkt.Ipv4_packet.dst then
    ignore (t.clock.schedule 0 (fun () -> deliver t pkt))
  else begin
    let verdict =
      if hooked then
        match t.tx_hook with None -> Tx_pass pkt | Some hook -> hook pkt
      else Tx_pass pkt
    in
    match verdict with
    | Tx_drop -> ()
    | Tx_pass pkt ->
      if t.tx_cost > 0 then
        Cpu.run t.cpu ~cost:(apply_jitter t t.tx_cost) (fun () ->
            transmit t pkt)
      else transmit t pkt
  end

let send t pkt = do_send t pkt ~hooked:true
let inject t pkt = do_send t pkt ~hooked:false

let send_tcp t ~src ~dst seg =
  send t (Ipv4_packet.make ~ident:(fresh_ident t) ~src ~dst (Tcp seg))

let cpu t = t.cpu
let obs t = t.obs
