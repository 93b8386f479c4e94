module Clock = Tcpfo_sim.Clock
module Time = Tcpfo_sim.Time
module Ipaddr = Tcpfo_packet.Ipaddr
module Macaddr = Tcpfo_packet.Macaddr
module Eth_frame = Tcpfo_packet.Eth_frame
module Arp_packet = Tcpfo_packet.Arp_packet
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Nic = Tcpfo_net.Nic
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event

let arp_retry_interval = Time.sec 1.0
let arp_max_tries = 3
let max_pending_per_hop = 8

type pending = {
  mutable tries : int;
  queue : Ipv4_packet.t Queue.t;
  mutable timer : Tcpfo_sim.Engine.event_id option;
}

type t = {
  clock : Clock.t;
  nic : Nic.t;
  obs : Obs.t;
  host : string; (* label carried by emitted events *)
  addrs : Ipaddr.t Tcpfo_util.Vec.t; (* index 0 = primary address *)
  prefix : int;
  arp : Arp_cache.t;
  pending : pending Ipaddr.Tbl.t;
  mutable snoop : Ipaddr.t option;
      (* promiscuous mode, for this address: the NIC's [host] filter *)
  mutable rx : Ipv4_packet.t -> link_addressed:bool -> unit;
  mutable on_addr_change : unit -> unit;
      (* lets the IP layer invalidate its local-address cache when a
         failover takeover adds or removes an alias *)
}

let rec create clock ?obs ?(host = "host") ~nic ~addr ~prefix () =
  let obs = match obs with Some o -> o | None -> Obs.silent () in
  let addrs = Tcpfo_util.Vec.create () in
  Tcpfo_util.Vec.push addrs addr;
  let t =
    {
      clock;
      nic;
      obs;
      host;
      addrs;
      prefix;
      arp = Arp_cache.create clock ~ttl:(Time.sec 1200.0) ~obs ();
      pending = Ipaddr.Tbl.create 4;
      snoop = None;
      rx = (fun _ ~link_addressed:_ -> ());
      on_addr_change = (fun () -> ());
    }
  in
  Nic.add_address nic addr;
  Nic.set_rx nic (fun frame ~addressed_to_me ->
      match frame.Eth_frame.payload with
      | Eth_frame.Arp a -> handle_arp t a
      | Eth_frame.Ip p -> t.rx p ~link_addressed:addressed_to_me);
  t

and handle_arp t (a : Arp_packet.t) =
  (* Learn the sender binding from every ARP packet, including gratuitous
     announcements — this is what makes IP takeover propagate. *)
  Arp_cache.learn t.arp a.sender_ip a.sender_mac;
  flush_pending t a.sender_ip;
  match a.op with
  | Arp_packet.Request
    when Tcpfo_util.Vec.exists (Ipaddr.equal a.target_ip) t.addrs ->
    let reply =
      Arp_packet.reply ~sender_mac:(Nic.mac t.nic) ~sender_ip:a.target_ip
        ~target_mac:a.sender_mac ~target_ip:a.sender_ip
    in
    Nic.send t.nic ~dst:a.sender_mac (Eth_frame.Arp reply)
  | Arp_packet.Request | Arp_packet.Reply -> ()

and flush_pending t ip =
  match Ipaddr.Tbl.find_opt t.pending ip with
  | None -> ()
  | Some p ->
    (match Arp_cache.lookup t.arp ip with
    | None -> ()
    | Some mac ->
      (match p.timer with Some id -> t.clock.cancel id | None -> ());
      Ipaddr.Tbl.remove t.pending ip;
      Queue.iter (fun pkt -> Nic.send t.nic ~dst:mac (Eth_frame.Ip pkt))
        p.queue)

let nic t = t.nic
let addresses t = Tcpfo_util.Vec.to_list t.addrs
let primary_address t = Tcpfo_util.Vec.get t.addrs 0
let prefix t = t.prefix
let has_address t ip = Tcpfo_util.Vec.exists (Ipaddr.equal ip) t.addrs
let arp_cache t = t.arp
let set_rx t fn = t.rx <- fn
let set_on_addr_change t fn = t.on_addr_change <- fn
let set_promiscuous t addr =
  t.snoop <- addr;
  match addr with
  | Some host -> Nic.set_promiscuous t.nic ~host true
  | None -> Nic.set_promiscuous t.nic false

let snooped t = t.snoop
let shutdown t = Nic.shutdown t.nic

let send_arp_request t target_ip =
  let req =
    Arp_packet.request ~sender_mac:(Nic.mac t.nic)
      ~sender_ip:(primary_address t) ~target_ip
  in
  Nic.send t.nic ~dst:Macaddr.broadcast (Eth_frame.Arp req)

let add_address t ip =
  if not (has_address t ip) then begin
    Tcpfo_util.Vec.push t.addrs ip;
    Nic.add_address t.nic ip;
    t.on_addr_change ();
    if Obs.tracing t.obs then
      Obs.emit t.obs ~at:(t.clock.now ())
        (Event.Arp_takeover { host = t.host; ip });
    let g = Arp_packet.gratuitous ~sender_mac:(Nic.mac t.nic) ~ip in
    Nic.send t.nic ~dst:Macaddr.broadcast (Eth_frame.Arp g)
  end

let rec arm_retry t ip p =
  p.timer <-
    Some
      (t.clock.schedule arp_retry_interval (fun () ->
           if Ipaddr.Tbl.mem t.pending ip then
             if p.tries >= arp_max_tries then begin
               (* resolution failed: drop queued datagrams *)
               Ipaddr.Tbl.remove t.pending ip
             end
             else begin
               p.tries <- p.tries + 1;
               send_arp_request t ip;
               arm_retry t ip p
             end))

let send_ip t ~next_hop pkt =
  match Arp_cache.lookup t.arp next_hop with
  | Some mac -> Nic.send t.nic ~dst:mac (Eth_frame.Ip pkt)
  | None ->
    (match Ipaddr.Tbl.find_opt t.pending next_hop with
    | Some p ->
      if Queue.length p.queue < max_pending_per_hop then
        Queue.push pkt p.queue
    | None ->
      let p = { tries = 1; queue = Queue.create (); timer = None } in
      Queue.push pkt p.queue;
      Ipaddr.Tbl.replace t.pending next_hop p;
      send_arp_request t next_hop;
      arm_retry t next_hop p)
