module Time = Tcpfo_sim.Time
module Clock = Tcpfo_sim.Clock
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Tcp_segment = Tcpfo_packet.Tcp_segment
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Ip_layer = Tcpfo_ip.Ip_layer
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry
module Event = Tcpfo_obs.Event
module Replicated = Tcpfo_core.Replicated

let probe_proto = 252

type config = {
  max_weight : int;
  decay_step : int;
  decay_period : Time.t;
  ramp_step : int;
  ramp_period : Time.t;
  probe_period : Time.t;
  probe_timeout : Time.t;
}

let default_config =
  {
    max_weight = 16;
    decay_step = 4;
    decay_period = Time.ms 2;
    ramp_step = 2;
    ramp_period = Time.ms 4;
    probe_period = Time.ms 10;
    probe_timeout = Time.us 35_000;
  }

type shard_state = Healthy | Degrading | Down | Ramping

(* Flow keys follow the stack's packed-demux idiom: the full client
   identity in one immediate int — (ip32 << 16) | port — hashed by a
   splitmix-style finalizer so Hashtbl buckets don't correlate with
   address locality. *)
module Key = struct
  type t = int

  let equal (a : int) (b : int) = a = b

  let hash k =
    let h = k * 0x3f58476d1ce4e5b9 land max_int in
    let h = (h lxor (h lsr 29)) * 0x14d049bb133111eb land max_int in
    (h lxor (h lsr 32)) land max_int
end

module Ftbl = Hashtbl.Make (Key)

let key_of addr port = (Ipaddr.to_int addr lsl 16) lor (port land 0xffff)

type shard = {
  s_name : string;
  s_pool : Replicated.t;
  s_svc : Ipaddr.t;
  mutable s_weight : int;
  mutable s_state : shard_state;
  mutable s_epoch : int;  (* bumped on state change; stale timers no-op *)
  mutable s_last_reply : Time.t;
  mutable s_probes_out : int;
  s_gauge : Registry.gauge;
}

type t = {
  host : Host.t;
  clock : Clock.t;
  service : Ipaddr.t;
  back : Ipaddr.t;
  shard_arr : shard array;
  flows : int Ftbl.t;
  obs : Obs.t;
  c_routed : Registry.counter;
  c_drained : Registry.counter;
  c_refused : Registry.counter;
  c_unmatched : Registry.counter;
  c_isolation : Registry.counter;
  c_probes : Registry.counter;
  c_replies : Registry.counter;
  c_shifts : Registry.counter;
  g_flows : Registry.gauge;
}

(* ------------------------------------------------------------------ *)
(* weight state machine                                                *)

let set_weight t sh w reason =
  if w <> sh.s_weight then begin
    sh.s_weight <- w;
    Registry.Gauge.set sh.s_gauge w;
    if Obs.tracing t.obs then
      Obs.emit t.obs
        ~at:(t.clock.Clock.now ())
        (Event.Weight_shift { shard = sh.s_name; weight = w; reason })
  end

let transition t sh state =
  if sh.s_state <> state then begin
    sh.s_state <- state;
    sh.s_epoch <- sh.s_epoch + 1;
    Registry.Counter.incr t.c_shifts
  end

let rec decay_tick t sh epoch () =
  if sh.s_epoch = epoch && sh.s_state = Degrading then begin
    set_weight t sh
      (Int.max 0 (sh.s_weight - default_config.decay_step))
      "decay";
    if sh.s_weight > 0 then
      ignore
        (t.clock.Clock.schedule default_config.decay_period
           (decay_tick t sh epoch))
  end

let start_degrading t sh =
  match sh.s_state with
  | Degrading | Down -> ()
  | Healthy | Ramping ->
    transition t sh Degrading;
    decay_tick t sh sh.s_epoch ()

(* A shard whose pool is whole ramps back to full weight; one that is
   merely *reachable* (the survivor serving solo after a takeover, or
   transfers still settling) rests at a quarter-weight floor — alive
   enough to accept traffic if the whole fleet is hurting, drained
   enough that siblings absorb the load until repair. *)
let ramp_target sh =
  if
    Replicated.status sh.s_pool = `Normal
    && Replicated.pending_transfers sh.s_pool = 0
  then default_config.max_weight
  else Int.max 1 (default_config.max_weight / 4)

let rec ramp_tick t sh epoch () =
  if sh.s_epoch = epoch && sh.s_state = Ramping then begin
    let target = ramp_target sh in
    if sh.s_weight < target then
      set_weight t sh
        (Int.min target (sh.s_weight + default_config.ramp_step))
        "ramp";
    if sh.s_weight >= default_config.max_weight then transition t sh Healthy
    else if sh.s_weight < target then
      ignore
        (t.clock.Clock.schedule default_config.ramp_period
           (ramp_tick t sh epoch))
    (* else: rest at the degraded floor until the pool settles *)
  end

let start_ramping t sh =
  match sh.s_state with
  | Healthy -> ()
  | Ramping ->
    (* re-kick a ramp resting at the floor; bump the epoch so a pending
       tick chain dies rather than doubling the ramp rate *)
    sh.s_epoch <- sh.s_epoch + 1;
    ramp_tick t sh sh.s_epoch ()
  | Degrading | Down ->
    transition t sh Ramping;
    ramp_tick t sh sh.s_epoch ()

let force_down t sh =
  if sh.s_state <> Down then begin
    transition t sh Down;
    set_weight t sh 0 "probe-timeout"
  end

(* ------------------------------------------------------------------ *)
(* health probes (raw IP proto 252)                                    *)

(* "probe SEQ ADDR" / "reply SEQ ADDR" — ADDR is the probed pool
   service address, carried so the responder can answer *from* it and
   the dispatcher can attribute the reply without trusting IP sources.
   Anything else counts in [ip.malformed.probe]. *)

type probe_msg = { reply : bool; seq : int; svc : Ipaddr.t }

let decode_probe data =
  match String.split_on_char ' ' data with
  | [ kind; seq; addr ] -> (
    match (kind, int_of_string_opt seq, Ipaddr.of_string addr) with
    | ("probe" | "reply"), Some seq, svc ->
      Some { reply = String.equal kind "reply"; seq; svc }
    | _ | (exception _) -> None)
  | _ -> None

let register_probes ip handler =
  Ip_layer.register ip ~proto:probe_proto ~name:"probe" ~decode:decode_probe
    handler

let arm_probe_responder host =
  let ip = Host.ip host in
  register_probes ip (fun ~src m ->
      if (not m.reply) && Ip_layer.is_local_address ip m.svc then
        Ip_layer.send ip
          (Ipv4_packet.make ~ident:(Ip_layer.fresh_ident ip) ~src:m.svc
             ~dst:src
             (Raw
                {
                  proto = probe_proto;
                  data =
                    Printf.sprintf "reply %d %s" m.seq
                      (Ipaddr.to_string m.svc);
                })))

let handle_reply t svc =
  match
    Array.fold_left
      (fun acc sh -> if Ipaddr.equal sh.s_svc svc then Some sh else acc)
      None t.shard_arr
  with
  | None -> ()
  | Some sh ->
    Registry.Counter.incr t.c_replies;
    sh.s_last_reply <- t.clock.Clock.now ();
    sh.s_probes_out <- 0;
    if sh.s_state = Down then start_ramping t sh

let probe_shard t seq sh =
  let now = t.clock.Clock.now () in
  if
    sh.s_probes_out > 0
    && now - sh.s_last_reply > default_config.probe_timeout
  then
    force_down t sh;
  sh.s_probes_out <- sh.s_probes_out + 1;
  Registry.Counter.incr t.c_probes;
  Ip_layer.send (Host.ip t.host)
    (Ipv4_packet.make
       ~ident:(Ip_layer.fresh_ident (Host.ip t.host))
       ~src:t.back ~dst:sh.s_svc
       (Raw
          {
            proto = probe_proto;
            data = Printf.sprintf "probe %d %s" seq (Ipaddr.to_string sh.s_svc);
          }))

let rec probe_loop t seq () =
  Array.iter (probe_shard t seq) t.shard_arr;
  ignore
    (t.clock.Clock.schedule default_config.probe_period
       (probe_loop t (seq + 1)))

(* ------------------------------------------------------------------ *)
(* weighted routing + NAT                                              *)

let total_weight t =
  Array.fold_left (fun a sh -> a + sh.s_weight) 0 t.shard_arr

(* Pin a fresh flow: hash the client identity once, take it modulo the
   live weight mass, and walk the shards in registration order.  The
   full-weight choice is computed from the same hash so [drained]
   counts exactly the flows that gradual shifting moved. *)
let pick t key =
  let total = total_weight t in
  if total = 0 then None
  else begin
    let h = Key.hash key in
    let x = h mod total in
    let chosen = ref (-1) and acc = ref 0 in
    Array.iteri
      (fun i sh ->
        if !chosen < 0 then begin
          acc := !acc + sh.s_weight;
          if x < !acc then chosen := i
        end)
      t.shard_arr;
    let n = Array.length t.shard_arr in
    let max_w = default_config.max_weight in
    let full = h mod (n * max_w) / max_w in
    if full <> !chosen then Registry.Counter.incr t.c_drained;
    Some !chosen
  end

let shard_idx_of_src t src =
  let n = Array.length t.shard_arr in
  let rec go i =
    if i >= n then None
    else if Ipaddr.equal t.shard_arr.(i).s_svc src then Some i
    else go (i + 1)
  in
  go 0

let handle_tcp t chain pkt (seg : Tcp_segment.t) ~link_addressed =
  if Ipaddr.equal pkt.Ipv4_packet.dst t.service then begin
    (* client -> fleet: translate dst to the pinned shard *)
    let key = key_of pkt.Ipv4_packet.src seg.Tcp_segment.src_port in
    match Ftbl.find_opt t.flows key with
    | Some idx ->
      Ip_layer.Rx_pass { pkt with Ipv4_packet.dst = t.shard_arr.(idx).s_svc }
    | None ->
      if seg.Tcp_segment.flags.Tcp_segment.syn && not seg.Tcp_segment.flags.Tcp_segment.ack
      then begin
        match pick t key with
        | Some idx ->
          Ftbl.replace t.flows key idx;
          Registry.Counter.incr t.c_routed;
          Registry.Gauge.set t.g_flows (Ftbl.length t.flows);
          Ip_layer.Rx_pass { pkt with Ipv4_packet.dst = t.shard_arr.(idx).s_svc }
        | None ->
          (* whole fleet drained: drop the SYN; the client's
             retransmission will retry against recovered weights *)
          Registry.Counter.incr t.c_refused;
          Ip_layer.Rx_drop
      end
      else begin
        Registry.Counter.incr t.c_unmatched;
        Ip_layer.Rx_drop
      end
  end
  else
    match shard_idx_of_src t pkt.Ipv4_packet.src with
    | Some sidx -> (
      (* shard -> client: translate src back to the fleet address, but
         only for the shard the flow is pinned to *)
      let key = key_of pkt.Ipv4_packet.dst seg.Tcp_segment.dst_port in
      match Ftbl.find_opt t.flows key with
      | Some idx when idx = sidx ->
        Ip_layer.Rx_pass { pkt with Ipv4_packet.src = t.service }
      | Some _ ->
        Registry.Counter.incr t.c_isolation;
        Ip_layer.Rx_drop
      | None ->
        Registry.Counter.incr t.c_unmatched;
        Ip_layer.Rx_drop)
    | None -> chain pkt ~link_addressed

let install_hooks t =
  let ip = Host.ip t.host in
  let inner_rx = Ip_layer.rx_hook ip in
  let chain pkt ~link_addressed =
    match inner_rx with
    | None -> Ip_layer.Rx_pass pkt
    | Some h -> h pkt ~link_addressed
  in
  Ip_layer.set_rx_hook ip
    (Some
       (fun pkt ~link_addressed ->
         if not link_addressed then chain pkt ~link_addressed
         else
           match pkt.Ipv4_packet.payload with
           | Ipv4_packet.Tcp seg -> handle_tcp t chain pkt seg ~link_addressed
           | _ -> chain pkt ~link_addressed));
  register_probes ip (fun ~src:_ m -> if m.reply then handle_reply t m.svc)

(* ------------------------------------------------------------------ *)
(* construction                                                        *)

let create ~host ~service ~back ~shards () =
  if shards = [] then invalid_arg "Dispatch.create: no shards";
  let ip = Host.ip host in
  if not (Ip_layer.is_local_address ip service) then
    invalid_arg "Dispatch.create: host does not own the service address";
  if not (Ip_layer.is_local_address ip back) then
    invalid_arg "Dispatch.create: host does not own the back address";
  Host.set_forwarding host true;
  let clock = Host.clock host in
  let obs = Obs.scope (Obs.root (Host.obs host)) "dispatch" in
  let now = clock.Clock.now () in
  let shard_arr =
    Array.of_list
      (List.map
         (fun (name, pool) ->
           let g = Obs.gauge (Obs.scope obs name) "weight" in
           Registry.Gauge.set g default_config.max_weight;
           {
             s_name = name;
             s_pool = pool;
             s_svc = Replicated.service_addr pool;
             s_weight = default_config.max_weight;
             s_state = Healthy;
             s_epoch = 0;
             s_last_reply = now;
             s_probes_out = 0;
             s_gauge = g;
           })
         shards)
  in
  let t =
    {
      host;
      clock;
      service;
      back;
      shard_arr;
      flows = Ftbl.create 64;
      obs;
      c_routed = Obs.counter obs "routed";
      c_drained = Obs.counter obs "drained";
      c_refused = Obs.counter obs "refused";
      c_unmatched = Obs.counter obs "unmatched";
      c_isolation = Obs.counter obs "isolation_drops";
      c_probes = Obs.counter obs "probes_sent";
      c_replies = Obs.counter obs "probe_replies";
      c_shifts = Obs.counter obs "shift_transitions";
      g_flows = Obs.gauge obs "flows";
    }
  in
  Array.iter
    (fun sh ->
      Replicated.add_on_event sh.s_pool (function
        | Replicated.Primary_failure_detected
        | Replicated.Secondary_failure_detected -> start_degrading t sh
        | Replicated.Transfers_complete _ ->
          if Replicated.status sh.s_pool = `Normal then start_ramping t sh
        | _ -> ()))
    t.shard_arr;
  install_hooks t;
  ignore
    (clock.Clock.schedule default_config.probe_period (probe_loop t 0));
  t

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)

let service t = t.service
let shards t = Array.to_list (Array.map (fun sh -> (sh.s_name, sh.s_pool)) t.shard_arr)

let find_shard t name =
  match
    Array.fold_left
      (fun acc sh -> if sh.s_name = name then Some sh else acc)
      None t.shard_arr
  with
  | Some sh -> sh
  | None -> invalid_arg (Printf.sprintf "Dispatch: no shard %S" name)

let weight t name = (find_shard t name).s_weight
let state t name = (find_shard t name).s_state

let pinned_shard t ~client:(addr, port) =
  match Ftbl.find_opt t.flows (key_of addr port) with
  | Some idx -> Some t.shard_arr.(idx).s_name
  | None -> None

type counters = {
  routed : int;
  drained : int;
  refused : int;
  unmatched : int;
  isolation_drops : int;
  probes_sent : int;
  probe_replies : int;
  shift_transitions : int;
}

let counters t =
  {
    routed = Registry.Counter.value t.c_routed;
    drained = Registry.Counter.value t.c_drained;
    refused = Registry.Counter.value t.c_refused;
    unmatched = Registry.Counter.value t.c_unmatched;
    isolation_drops = Registry.Counter.value t.c_isolation;
    probes_sent = Registry.Counter.value t.c_probes;
    probe_replies = Registry.Counter.value t.c_replies;
    shift_transitions = Registry.Counter.value t.c_shifts;
  }

let of_topo topo ~name ~config () =
  let info = Topo.dispatch_of topo name in
  let shards =
    List.map
      (fun g ->
        let replicas = Topo.group_of topo g in
        let pool = Replicated.create_pool ~replicas ~config () in
        List.iter arm_probe_responder replicas;
        (g, pool))
      info.Topo.di_shards
  in
  let t =
    create ~host:info.Topo.di_host ~service:info.Topo.di_service
      ~back:info.Topo.di_back ~shards ()
  in
  (t, shards)
