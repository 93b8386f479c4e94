module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Vec = Tcpfo_util.Vec
module Eth_frame = Tcpfo_packet.Eth_frame
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type config = {
  bandwidth_bps : int;
  propagation : Time.t;
  loss_prob : float;
  enable_collisions : bool;
  collision_prob : float;
}

let default_config =
  { bandwidth_bps = 100_000_000; propagation = Time.us 1; loss_prob = 0.0;
    enable_collisions = true; collision_prob = 0.3 }

type port = {
  id : int;
  mutable deliver : Eth_frame.t -> unit;
  mutable attached : bool;
  backlog : Eth_frame.t Queue.t;
  mutable attempts : int; (* collisions suffered by the head frame *)
  mutable deferring : bool; (* queued waiting for the medium to go idle *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  ports : port Vec.t; (* in attach order, for determinism *)
  mutable next_id : int;
  mutable busy : bool;
  waiters : port Queue.t; (* deferring stations, FIFO; filtered lazily *)
  mutable fault_hook : (Eth_frame.t -> Fault_hook.verdict) option;
  collisions : Registry.counter;
  frames : Registry.counter;
  bytes : Registry.counter;
  fault_dropped : Registry.counter;
  corrupted : Registry.counter;
}

let create engine ~rng ?obs config =
  let obs =
    Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "medium"
  in
  { engine; rng; config; ports = Vec.create (); next_id = 0; busy = false;
    waiters = Queue.create (); fault_hook = None;
    collisions = Obs.counter obs "collisions";
    frames = Obs.counter obs "frames"; bytes = Obs.counter obs "bytes";
    fault_dropped = Obs.counter obs "fault_dropped";
    corrupted = Obs.counter obs "corrupted" }

let set_fault_hook t h = t.fault_hook <- h

let attach t ~deliver =
  let p =
    { id = t.next_id; deliver; attached = true; backlog = Queue.create ();
      attempts = 0; deferring = false }
  in
  t.next_id <- t.next_id + 1;
  Vec.push t.ports p;
  p

let detach t p =
  p.attached <- false;
  Queue.clear p.backlog;
  ignore (Vec.remove_first (fun q -> q.id = p.id) t.ports)
(* a detached port still queued in [waiters] is skipped at the next
   idle transition *)

(* Serialization time of a [len]-byte frame includes 8 bytes preamble +
   12 bytes inter-frame gap. *)
let serialization_time t ~len =
  let bits = (len + 20) * 8 in
  bits * 1_000_000_000 / t.config.bandwidth_bps

let slot_time = Time.ns 5_120 (* 512 bit times at 100 Mb/s *)
let max_attempts = 16

let rec start_single t p =
  match Queue.peek_opt p.backlog with
  | None -> ()
  | Some frame ->
    ignore (Queue.pop p.backlog);
    p.attempts <- 0;
    t.busy <- true;
    let len = Eth_frame.wire_length frame in
    let ser = serialization_time t ~len in
    Registry.Counter.incr t.frames;
    Registry.Counter.add t.bytes len;
    let lost =
      t.config.loss_prob > 0.0 && Rng.bool t.rng t.config.loss_prob
    in
    (* The fault hook rules on every frame after the configured random
       loss has drawn from the rng (so the rng stream is identical with
       and without a pass-through hook).  Dropped and corrupted frames
       still occupy the wire for their serialization time; only delivery
       is suppressed. *)
    let lost =
      match t.fault_hook with
      | None -> lost
      | Some hook -> (
        match hook frame with
        | Fault_hook.Pass -> lost
        | Fault_hook.Drop ->
          Registry.Counter.incr t.fault_dropped;
          true
        | Fault_hook.Corrupt ->
          Registry.Counter.incr t.corrupted;
          true)
    in
    (* Delivery completes one serialization + propagation later, as one
       engine event that fans the frame out to every other attached port.
       A frame already decided lost schedules no (no-op) delivery. *)
    if not lost then
      ignore
        (Engine.schedule t.engine ~delay:(ser + t.config.propagation)
           (fun () ->
             Vec.iter
               (fun q -> if q.attached && q.id <> p.id then q.deliver frame)
               t.ports));
    ignore
      (Engine.schedule t.engine ~delay:ser (fun () ->
           t.busy <- false;
           if p.attached && not (Queue.is_empty p.backlog) then defer t p;
           on_idle t))

and on_idle t =
  (* Drain every waiter (FIFO); stations that detached or drained their
     backlog while queued are dropped here. *)
  let ready_rev = ref [] in
  while not (Queue.is_empty t.waiters) do
    let p = Queue.pop t.waiters in
    if p.attached && not (Queue.is_empty p.backlog) then
      ready_rev := p :: !ready_rev
  done;
  let ready = List.rev !ready_rev in
  List.iter (fun p -> p.deferring <- false) ready;
  match ready with
  | [] -> ()
  | [ p ] -> start_single t p
  | contenders when not t.config.enable_collisions ->
    (* deterministic FIFO service *)
    (match contenders with
    | first :: rest ->
      List.iter (fun p -> defer t p) rest;
      start_single t first
    | [] -> ())
  | contenders
    when t.config.collision_prob < 1.0
         && not (Rng.bool t.rng t.config.collision_prob) ->
    (* Contention resolved by carrier sense: the first waiter starts, the
       rest keep deferring. *)
    (match contenders with
    | first :: rest ->
      List.iter (fun p -> defer t p) rest;
      start_single t first
    | [] -> ())
  | contenders ->
    (* Collision: jam, then each contender backs off and retries. *)
    Registry.Counter.incr t.collisions;
    t.busy <- true;
    ignore
      (Engine.schedule t.engine ~delay:slot_time (fun () ->
           t.busy <- false;
           on_idle t));
    List.iter
      (fun p ->
        p.attempts <- p.attempts + 1;
        if p.attempts > max_attempts then begin
          ignore (Queue.pop p.backlog);
          p.attempts <- 0;
          if not (Queue.is_empty p.backlog) then retry_later t p 0
        end
        else begin
          let k = Int.min p.attempts 10 in
          let slots = Rng.int t.rng (1 lsl k) in
          retry_later t p slots
        end)
      contenders

and retry_later t p slots =
  ignore
    (Engine.schedule t.engine
       ~delay:(slot_time + (slots * slot_time))
       (fun () -> try_send t p))

and defer t p =
  if not p.deferring then begin
    p.deferring <- true;
    Queue.push p t.waiters
  end

and try_send t p =
  if p.attached && not (Queue.is_empty p.backlog) then
    if t.busy then defer t p else start_single t p

let transmit t p frame =
  if p.attached then begin
    Queue.push frame p.backlog;
    if not p.deferring then try_send t p
  end
