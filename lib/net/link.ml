module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type config = {
  bandwidth_bps : int;
  delay : Time.t;
  jitter : Time.t;
  loss_prob : float;
  dup_prob : float;
  reorder_prob : float;
  queue_capacity : int;
}

let default_config =
  { bandwidth_bps = 10_000_000; delay = Time.ms 20; jitter = 0;
    loss_prob = 0.0; dup_prob = 0.0; reorder_prob = 0.0;
    queue_capacity = 64 }

(* One direction: a serializing queue feeding a delay line.  [tx_blocked]
   cuts off the sending endpoint (partition fault): packets offered to a
   blocked direction vanish before queueing.  [rx_blocked] cuts off the
   receiving endpoint: packets already in flight are discarded at delivery
   time, as if the cable were unplugged at that end. *)
type direction = {
  mutable receiver : Ipv4_packet.t -> unit;
  queue : Ipv4_packet.t Queue.t;
  mutable transmitting : bool;
  mutable tx_blocked : bool;
  mutable rx_blocked : bool;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  a_to_b : direction;
  b_to_a : direction;
  dropped : Registry.counter;
  queue_full : Registry.counter;
  delivered : Registry.counter;
  fault_dropped : Registry.counter;
}

type endpoint = { link : t; out_dir : direction; in_dir : direction }

let mk_direction () =
  { receiver = (fun _ -> ()); queue = Queue.create (); transmitting = false;
    tx_blocked = false; rx_blocked = false }

let create engine ~rng ?obs config =
  let obs =
    Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "link"
  in
  { engine; rng; config; a_to_b = mk_direction (); b_to_a = mk_direction ();
    dropped = Obs.counter obs "dropped";
    queue_full = Obs.counter obs "queue_full";
    delivered = Obs.counter obs "delivered";
    fault_dropped = Obs.counter obs "fault_dropped" }

let endpoint_a t = { link = t; out_dir = t.a_to_b; in_dir = t.b_to_a }
let endpoint_b t = { link = t; out_dir = t.b_to_a; in_dir = t.a_to_b }

let set_receiver ep fn = ep.in_dir.receiver <- fn

let serialization_time t p =
  Ipv4_packet.wire_length p * 8 * 1_000_000_000 / t.config.bandwidth_bps

let rec pump t dir =
  match Queue.peek_opt dir.queue with
  | None -> dir.transmitting <- false
  | Some p ->
    ignore (Queue.pop dir.queue);
    dir.transmitting <- true;
    let ser = serialization_time t p in
    let lost = t.config.loss_prob > 0.0 && Rng.bool t.rng t.config.loss_prob in
    if lost then Registry.Counter.incr t.dropped;
    let extra =
      if t.config.jitter > 0 then Rng.int t.rng (t.config.jitter + 1) else 0
    in
    (* a reordered packet is held back by several serialization times so
       that packets behind it overtake *)
    let extra =
      if t.config.reorder_prob > 0.0 && Rng.bool t.rng t.config.reorder_prob
      then extra + (ser * (2 + Rng.int t.rng 6))
      else extra
    in
    if not lost then begin
      (* each copy is its own engine event; jitter and reordering make due
         times non-monotone and the engine orders them.  The direction's
         live [rx_blocked]/[receiver] are read at delivery time. *)
      let deliver_once delay =
        ignore
          (Engine.schedule t.engine ~delay (fun () ->
               if dir.rx_blocked then Registry.Counter.incr t.fault_dropped
               else begin
                 Registry.Counter.incr t.delivered;
                 dir.receiver p
               end))
      in
      deliver_once (ser + t.config.delay + extra);
      if t.config.dup_prob > 0.0 && Rng.bool t.rng t.config.dup_prob then
        deliver_once (ser + t.config.delay + extra + (ser / 2) + 1)
    end;
    ignore (Engine.schedule t.engine ~delay:ser (fun () -> pump t dir))

let send ep p =
  let t = ep.link in
  let dir = ep.out_dir in
  if dir.tx_blocked then Registry.Counter.incr t.fault_dropped
  else if Queue.length dir.queue >= t.config.queue_capacity then
    (* congestion drop, distinct from random in-flight loss *)
    Registry.Counter.incr t.queue_full
  else begin
    Queue.push p dir.queue;
    if not dir.transmitting then pump t dir
  end

let set_blocked ep b =
  ep.out_dir.tx_blocked <- b;
  ep.in_dir.rx_blocked <- b
