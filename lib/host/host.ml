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

type t = {
  engine : Engine.t;
  name : string;
  rng : Rng.t;
  clock : Clock.t;
  obs : Obs.t; (* scoped [host.<name>] *)
  ip : Ip_layer.t;
  tcp : Stack.t;
  mutable ifaces : iface_entry list;
  mutable alive : bool;
  mutable paused : bool;
  (* timers and packet deliveries that came due while paused, in firing
     order; each carries its logical cancellation ref *)
  deferred : (Engine.event_id * (unit -> unit)) Queue.t;
  mutable locals : binding list;
}

let create engine ~name ~rng ?(profile = default_profile)
    ?(tcp_config = Tcp_config.default) ?obs () =
  let obs =
    Obs.scope
      (Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "host")
      name
  in
  let rec t =
    lazy
      ((* Liveness- and pause-aware clock: a dead host's events are
          inert, and when an event comes due on a paused host its body is
          parked on [deferred] instead of running, keyed by the event's
          own id so a cancel that arrives while the body is parked still
          takes effect (the engine keeps cancelled-after-fire observable
          for exactly this purpose). *)
       let clock =
         let schedule delay fn =
           let id_cell = ref None in
           let id =
             Engine.schedule engine ~delay (fun () ->
                 let host = Lazy.force t in
                 if host.alive then
                   if host.paused then
                     Queue.push (Option.get !id_cell, fn) host.deferred
                   else fn ())
           in
           id_cell := Some id;
           id
         in
         { Clock.now = (fun () -> Engine.now engine);
           schedule;
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
                        (int_of_float
                           (float_of_int base *. profile.jitter_frac)))
                 else 0
               in
               if
                 profile.hiccup_prob > 0.0 && Rng.bool rng profile.hiccup_prob
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
       { engine; name; rng; clock; obs; ip; tcp; ifaces = []; alive = true;
         paused = false; deferred = Queue.create (); locals = [] })
  in
  Lazy.force t

let name t = t.name
let engine t = t.engine
let clock t = t.clock
let rng t = t.rng
let obs t = t.obs
let ip t = t.ip
let cpu t = Ip_layer.cpu t.ip
let tcp t = t.tcp
let alive t = t.alive

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
  if t.alive then begin
    t.alive <- false;
    Queue.clear t.deferred;
    List.iter
      (function
        | Lan (e, _) -> Eth_iface.shutdown e
        | Ptp (ep, _, _) -> Link.set_receiver ep (fun _ -> ()))
      t.ifaces
  end

let paused t = t.paused
let pause t = if t.alive then t.paused <- true

let resume t =
  if t.alive && t.paused then begin
    t.paused <- false;
    (* Everything that came due during the freeze fires now, in original
       order, all at the resume instant — SIGCONT semantics.  A handler
       may re-pause (or kill) the host, in which case the rest stays
       deferred (resp. is discarded). *)
    let continue = ref true in
    while !continue && not (Queue.is_empty t.deferred) do
      let id, fn = Queue.pop t.deferred in
      if not (Engine.is_cancelled id) then fn ();
      if t.paused || not t.alive then continue := false
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
