module Clock = Tcpfo_sim.Clock
module Ipaddr = Tcpfo_packet.Ipaddr
module Macaddr = Tcpfo_packet.Macaddr
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type entry = { mac : Macaddr.t; expires : Tcpfo_sim.Time.t }

type t = {
  clock : Clock.t;
  ttl : Tcpfo_sim.Time.t;
  table : entry Ipaddr.Tbl.t;
  hits : Registry.counter;
  misses : Registry.counter;
  learned : Registry.counter;
}

let create clock ~ttl ?obs () =
  let obs =
    Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "arp"
  in
  { clock; ttl; table = Ipaddr.Tbl.create 16; hits = Obs.counter obs "hits";
    misses = Obs.counter obs "misses";
    learned = Obs.counter obs "learned" }

let lookup t ip =
  match Ipaddr.Tbl.find_opt t.table ip with
  | Some e when e.expires > t.clock.now () ->
    Registry.Counter.incr t.hits;
    Some e.mac
  | Some _ ->
    Ipaddr.Tbl.remove t.table ip;
    Registry.Counter.incr t.misses;
    None
  | None ->
    Registry.Counter.incr t.misses;
    None

let learn t ip mac =
  Registry.Counter.incr t.learned;
  Ipaddr.Tbl.replace t.table ip { mac; expires = t.clock.now () + t.ttl }

let clear t = Ipaddr.Tbl.reset t.table

let entries t =
  let now = t.clock.now () in
  Ipaddr.Tbl.fold
    (fun ip e acc -> if e.expires > now then (ip, e.mac) :: acc else acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> Ipaddr.compare a b)
