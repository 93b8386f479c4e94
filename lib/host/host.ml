module Engine = Tcpfo_sim.Engine
module Clock = Tcpfo_sim.Clock
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Ipaddr = Tcpfo_packet.Ipaddr
module Macaddr = Tcpfo_packet.Macaddr
module Medium = Tcpfo_net.Medium
module Link = Tcpfo_net.Link
module Nic = Tcpfo_net.Nic
module Eth_iface = Tcpfo_ip.Eth_iface
module Ip_layer = Tcpfo_ip.Ip_layer
module Stack = Tcpfo_tcp.Stack
module Tcp_config = Tcpfo_tcp.Tcp_config
module Obs = Tcpfo_obs.Obs

type profile = {
  tx_cost : Time.t;
  rx_cost : Time.t;
  jitter_frac : float; (* uniform extra cost, as a fraction of the base *)
  hiccup_prob : float; (* rare scheduler hiccup adding ~3x the base cost *)
}

(* Calibrated so that a standard-TCP connection setup on an otherwise
   idle 100 Mb/s LAN lands near the paper's ~294 µs median (§9). *)
let default_profile =
  { tx_cost = Time.us 30; rx_cost = Time.us 45; jitter_frac = 0.0;
    hiccup_prob = 0.0 }

type iface_entry =
  | Lan of Eth_iface.t * Ip_layer.iface
  | Ptp of Link.endpoint * Ipaddr.t * Ip_layer.iface

(* Per-host state of services layered above the host, found by key. *)
type binding = Binding : 'a Type.Id.t * 'a -> binding

(* Liveness and pause state, shared by the host and its clock's guard.
   Events that came due while paused wait on [parked] in firing order,
   each keyed by its own event id, so a cancel that arrives while the
   body is parked still takes effect. *)
type gate = {
  mutable alive : bool;
  mutable paused : bool;
  parked : Engine.event_id Queue.t;
}

type t = {
  engine : Engine.t;
  name : string;
  rng : Rng.t;
  clock : Clock.t;
  obs : Obs.t; (* scoped [host.<name>] *)
  ip : Ip_layer.t;
  tcp : Stack.t;
  mutable ifaces : iface_entry list;
  gate : gate;
  mutable locals : binding list;
}

(* The guard of every event scheduled through a host's clock: a dead
   host's events are inert, and a paused host's bodies are parked. *)
let admit gate id =
  if not gate.alive then false
  else if gate.paused then begin
    Queue.push id gate.parked;
    false
  end
  else true

let create engine ~name ~rng ?(profile = default_profile)
    ?(tcp_config = Tcp_config.default) ?obs () =
  let obs =
    Obs.scope
      (Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "host")
      name
  in
  let gate = { alive = true; paused = false; parked = Queue.create () } in
  let clock =
    let guard = admit gate in
    { Clock.now = (fun () -> Engine.now engine);
      schedule =
        (fun delay fn -> Engine.schedule_guarded engine ~guard ~delay fn);
      cancel = (fun id -> Engine.cancel engine id) }
  in
  let jitter =
    if profile.jitter_frac > 0.0 || profile.hiccup_prob > 0.0 then begin
      let base = (profile.tx_cost + profile.rx_cost) / 2 in
      Some
        (fun () ->
          let extra =
            if profile.jitter_frac > 0.0 then
              Rng.int rng
                (Int.max 1
                   (int_of_float (float_of_int base *. profile.jitter_frac)))
            else 0
          in
          if profile.hiccup_prob > 0.0 && Rng.bool rng profile.hiccup_prob
          then extra + (3 * base)
          else extra)
    end
    else None
  in
  let ip =
    Ip_layer.create clock ~name ~tx_cost:profile.tx_cost
      ~rx_cost:profile.rx_cost ?jitter ~obs ()
  in
  let tcp = Stack.create clock ~ip ~config:tcp_config ~rng in
  { engine; name; rng; clock; obs; ip; tcp; ifaces = []; gate; locals = [] }

let name t = t.name
let engine t = t.engine
let clock t = t.clock
let rng t = t.rng
let obs t = t.obs
let ip t = t.ip
let cpu t = Ip_layer.cpu t.ip
let tcp t = t.tcp
let alive t = t.gate.alive

type 'a key = 'a Type.Id.t

let new_key () = Type.Id.make ()

let local (type a) t (key : a key) ~init : a =
  let rec find = function
    | [] ->
      let v = init () in
      t.locals <- Binding (key, v) :: t.locals;
      v
    | Binding (k, v) :: rest -> (
      match Type.Id.provably_equal key k with
      | Some Type.Equal -> v
      | None -> find rest)
  in
  find t.locals

let attach_lan t medium ~addr ?(prefix = 24) ~mac () =
  let nic = Nic.create t.engine ~mac ~obs:t.obs medium in
  let eth =
    Eth_iface.create t.clock ~obs:t.obs ~host:t.name ~nic ~addr ~prefix ()
  in
  let iface = Ip_layer.add_eth_iface t.ip eth in
  t.ifaces <- t.ifaces @ [ Lan (eth, iface) ];
  eth

let attach_ptp t ep ~addr =
  let iface = Ip_layer.add_ptp_iface t.ip ep ~addr in
  (* connected route for the link subnet, so replies reach the peer *)
  Ip_layer.add_route t.ip ~net:addr ~prefix:24 iface;
  t.ifaces <- t.ifaces @ [ Ptp (ep, addr, iface) ]

let first_ptp t =
  List.find_map
    (function Ptp (ep, _, iface) -> Some (ep, iface) | Lan _ -> None)
    t.ifaces

let set_default_via_ptp t =
  match first_ptp t with
  | Some (_, iface) ->
    Ip_layer.add_route t.ip ~net:Ipaddr.any ~prefix:0 iface
  | None -> invalid_arg "Host.set_default_via_ptp: no ptp interface"

let eth t =
  match
    List.find_map
      (function Lan (e, _) -> Some e | Ptp _ -> None)
      t.ifaces
  with
  | Some e -> e
  | None -> invalid_arg (t.name ^ ": no ethernet interface")

let lan_iface t =
  match
    List.find_map
      (function Lan (_, i) -> Some i | Ptp _ -> None)
      t.ifaces
  with
  | Some i -> i
  | None -> invalid_arg (t.name ^ ": no ethernet interface")

let set_default_via_lan t ~gateway =
  Ip_layer.set_default_route t.ip ~gateway (lan_iface t)

let set_forwarding t v = Ip_layer.set_forwarding t.ip v

let addr t =
  match t.ifaces with
  | Lan (e, _) :: _ -> Eth_iface.primary_address e
  | Ptp (_, a, _) :: _ -> a
  | [] -> invalid_arg (t.name ^ ": no interface")

let kill t =
  if t.gate.alive then begin
    t.gate.alive <- false;
    Queue.clear t.gate.parked;
    List.iter
      (function
        | Lan (e, _) -> Eth_iface.shutdown e
        | Ptp (ep, _, _) -> Link.set_receiver ep (fun _ -> ()))
      t.ifaces
  end

let paused t = t.gate.paused
let pause t = if t.gate.alive then t.gate.paused <- true

let resume t =
  let g = t.gate in
  if g.alive && g.paused then begin
    g.paused <- false;
    (* Everything that came due during the freeze fires now, in original
       order, all at the resume instant — SIGCONT semantics.  A handler
       may re-pause (or kill) the host, in which case the rest stays
       parked (resp. is discarded). *)
    while g.alive && (not g.paused) && not (Queue.is_empty g.parked) do
      Engine.run_parked (Queue.pop g.parked)
    done
  end

let set_partitioned t v =
  List.iter
    (function
      | Lan (e, _) -> Nic.set_partitioned (Eth_iface.nic e) v
      | Ptp (ep, _, _) -> Link.set_blocked ep v)
    t.ifaces

let learn_arp t peer_ip peer_mac =
  List.iter
    (function
      | Lan (e, _) -> Tcpfo_ip.Arp_cache.learn (Eth_iface.arp_cache e) peer_ip peer_mac
      | Ptp _ -> ())
    t.ifaces
