module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Ipaddr = Tcpfo_packet.Ipaddr
module Macaddr = Tcpfo_packet.Macaddr
module Medium = Tcpfo_net.Medium
module Link = Tcpfo_net.Link
module Eth_iface = Tcpfo_ip.Eth_iface
module Obs = Tcpfo_obs.Obs

type t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t;
  mutable next_mac : int;
  (* every LAN attachment ever made, for duplicate-address detection:
     (segment, ip, mac, host name) *)
  mutable bindings : (Medium.t * Ipaddr.t * Macaddr.t * string) list;
}

let create ?(seed = 0xC0FFEE) () =
  let engine = Engine.create () in
  let obs = Obs.create () in
  (* [lib/sim] cannot see [lib/obs], so the engine's structural counters
     are mirrored into the registry from here.  They count the queue's
     own work (when it meets tombstones, how often buckets cascade), not
     the simulation's, so identity checks that span engine changes
     compare everything BUT the [engine.*] scope (see DESIGN). *)
  let eobs = Obs.scope obs "engine" in
  let skips = Obs.counter eobs "cancelled_skips" in
  let cascades = Obs.counter eobs "wheel_cascades" in
  Engine.set_stat_hooks engine
    ~cancelled_skip:(fun () -> Tcpfo_obs.Registry.Counter.incr skips)
    ~wheel_cascade:(fun () -> Tcpfo_obs.Registry.Counter.incr cascades);
  { engine; rng = Rng.create ~seed; obs; next_mac = 1; bindings = [] }

(* Two hosts claiming one IP on one segment would fight over ARP — the
   takeover's gratuitous ARP (§5 step 2) is the ONE sanctioned way an
   address moves, so reject the topology outright.  Same for MACs: the
   bridges snoop by address, and a duplicated MAC makes delivery depend
   on attachment order. *)
let record_binding t medium ~addr ~mac ~name =
  List.iter
    (fun (m, a, mc, n) ->
      if m == medium then begin
        if Ipaddr.equal a addr then
          invalid_arg
            (Printf.sprintf
               "World: duplicate IP %s on one segment (hosts %S and %S)"
               (Ipaddr.to_string addr) n name);
        if Macaddr.equal mc mac then
          invalid_arg
            (Printf.sprintf
               "World: duplicate MAC %s on one segment (hosts %S and %S)"
               (Macaddr.to_string mac) n name)
      end)
    t.bindings;
  t.bindings <- (medium, addr, mac, name) :: t.bindings

let engine t = t.engine
let rng t = t.rng
let obs t = t.obs
let metrics t = Obs.metrics t.obs
let fresh_rng t = Rng.split t.rng

let fresh_mac t =
  let m = Macaddr.of_int (0x020000000000 lor t.next_mac) in
  t.next_mac <- t.next_mac + 1;
  m

let make_lan t ?(config = Medium.default_config) () =
  Medium.create t.engine ~rng:(fresh_rng t) ~obs:t.obs config

let add_host t medium ~name ~addr ?profile ?tcp_config () =
  let h =
    Host.create t.engine ~name ~rng:(fresh_rng t) ?profile ?tcp_config
      ~obs:t.obs ()
  in
  let ip = Ipaddr.of_string addr in
  let mac = fresh_mac t in
  record_binding t medium ~addr:ip ~mac ~name;
  let _ : Eth_iface.t = Host.attach_lan h medium ~addr:ip ~mac () in
  h

(* A second (or further) LAN leg for an already-created host — the
   two-homed dispatcher tier attaches its back-side interface through
   here so the MAC draw and the duplicate-binding check stay centralized
   and in declaration order. *)
let attach_extra_lan t host medium ~addr =
  let ip = Ipaddr.of_string addr in
  let mac = fresh_mac t in
  record_binding t medium ~addr:ip ~mac ~name:(Host.name host);
  Host.attach_lan host medium ~addr:ip ~mac ()

let router_profile =
  { Host.tx_cost = Time.us 5; rx_cost = Time.us 10; jitter_frac = 0.0;
    hiccup_prob = 0.0 }

let add_router t medium ~lan_addr ~wan_link ~wan_addr () =
  let h =
    Host.create t.engine ~name:"router" ~rng:(fresh_rng t)
      ~profile:router_profile ~obs:t.obs ()
  in
  let ip = Ipaddr.of_string lan_addr in
  let mac = fresh_mac t in
  record_binding t medium ~addr:ip ~mac ~name:"router";
  let _ : Eth_iface.t = Host.attach_lan h medium ~addr:ip ~mac () in
  Host.attach_ptp h (Link.endpoint_b wan_link) ~addr:(Ipaddr.of_string wan_addr);
  Host.set_forwarding h true;
  h

let add_wan_client t ~wan_link ~addr ?profile ?tcp_config () =
  let h =
    Host.create t.engine ~name:"wan-client" ~rng:(fresh_rng t) ?profile
      ?tcp_config ~obs:t.obs ()
  in
  Host.attach_ptp h (Link.endpoint_a wan_link) ~addr:(Ipaddr.of_string addr);
  Host.set_default_via_ptp h;
  h

let warm_arp hosts =
  (* dead hosts neither learn nor teach: a killed host still claims its
     address (after a primary death, the SERVICE address), and warming
     its stale binding into the others would override the takeover's
     gratuitous ARP and re-poison the service address *)
  let hosts = List.filter Host.alive hosts in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Host.name a <> Host.name b then
            match
              ( (try Some (Host.eth b) with Invalid_argument _ -> None),
                (try Some (Host.addr b) with Invalid_argument _ -> None) )
            with
            | Some eth_b, Some addr_b ->
              Host.learn_arp a addr_b
                (Tcpfo_net.Nic.mac (Eth_iface.nic eth_b))
            | _ -> ())
        hosts)
    hosts

let run t ~for_ = Engine.run_for t.engine for_
let run_until_idle t = Engine.run t.engine
let now t = Engine.now t.engine
