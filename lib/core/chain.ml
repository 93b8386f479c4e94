module Host = Tcpfo_host.Host
module Tcb = Tcpfo_tcp.Tcb
module Stack = Tcpfo_tcp.Stack
module Cpu = Tcpfo_sim.Cpu
module Ipaddr = Tcpfo_packet.Ipaddr
module Transfer = Tcpfo_statex.Transfer

type event =
  | Death_detected of int
  | Promoted of int
  | Retargeted of int * int
  | Degraded of int
  | Rejoined of int
  | Transfers_complete of int
  | Isolated of {
      local_port : int;
      remote : Ipaddr.t * int;
      state : Tcb.state;
    }

let event_to_string = function
  | Death_detected i -> Printf.sprintf "replica %d declared dead" i
  | Promoted i -> Printf.sprintf "replica %d promoted to head" i
  | Retargeted (i, j) ->
    Printf.sprintf "replica %d re-diverts to replica %d" i j
  | Degraded i -> Printf.sprintf "replica %d degrades (lost its tail)" i
  | Rejoined i -> Printf.sprintf "replica %d rejoined at the tail" i
  | Transfers_complete n ->
    Printf.sprintf "%d connections re-replicated onto the tail" n
  | Isolated { local_port; remote = ra, rp; state } ->
    Printf.sprintf "connection :%d <-> %s:%d pinned solo in %s" local_port
      (Ipaddr.to_string ra) rp (Tcb.state_to_string state)

type bridge = Merger of Primary_bridge.t | Tail of Secondary_bridge.t

type node = {
  index : int;
  host : Host.t;
  mutable bridge : bridge;
  mutable is_head : bool;
  xfer : Transfer.t;
}

type t = {
  (* every node ever created, dead ones included: indices are stable and
     never reused, so events keep naming retired replicas unambiguously *)
  mutable nodes : node list;
  (* the live chain, head first — rejoined replicas append at the tail,
     so liveness order is no longer derivable from creation order *)
  mutable order : int list;
  mutable next_index : int;
  registry : Failover_config.registry;
  config : Failover_config.t;
  service : Ipaddr.t;
  (* listener and §7.2 setup hooks, plus the offer scheduler *)
  hot : Hot_transfer.t;
  (* (watching node, watched node, detector) for every live pair *)
  mutable watchers : (int * int * Heartbeat.t) list;
  mutable on_event : event -> unit;
}

let service_addr t = t.service
let registry t = t.registry
let set_on_event t fn = t.on_event <- fn
let node_of t i = List.find (fun n -> n.index = i) t.nodes
let alive t = t.order
let head t = match t.order with i :: _ -> i | [] -> -1
let host t i = (node_of t i).host
let bridge t i = (node_of t i).bridge
let pending_transfers t = Hot_transfer.pending t.hot
let transfer_failures t = Hot_transfer.failures t.hot

(* the statex counters are world-absolute: any endpoint reads them all *)
let transfer_stats t = Transfer.stats (List.hd t.nodes).xfer

(* ---------------------------------------------------------------- *)
(* Role reconfiguration after a death.                               *)

(* the live node directly above replica [i], if [i] is not the head *)
let upstream t i =
  let rec find prev = function
    | [] -> None
    | j :: rest -> if j = i then prev else find (Some j) rest
  in
  Option.map (node_of t) (find None t.order)

(* The takeover kick (DESIGN.md 7.22): the path [node]'s service
   connections leave through has just changed, so none of them waits
   for its RTO, which is often backed off already.  After each
   connection the kick acted on, the walk resumes only once the CPU
   has worked off everything queued so far, its own transmissions
   included, so the heartbeats and probe replies the host handles
   meanwhile interleave with it instead of queueing behind every
   retransmission.  Client-role (§7.2 backend) connections keep their
   own timers: their path to the backend did not change. *)
let kick_services t node =
  let service tcb =
    let addr, port = Tcb.local_endpoint tcb in
    Ipaddr.equal addr t.service
    && Failover_config.is_failover_local_port t.registry port
  in
  let cpu = Host.cpu node.host in
  let rec walk = function
    | [] -> ()
    | tcb :: rest ->
      if Tcb.kick tcb then Cpu.run cpu ~cost:0 (fun () -> walk rest)
      else walk rest
  in
  walk (List.filter service (Stack.connections (Host.tcp node.host)))

let promote_node t node =
  if not node.is_head then begin
    node.is_head <- true;
    let on_complete () =
      kick_services t node;
      t.on_event (Promoted node.index)
    in
    match node.bridge with
    | Merger b -> Primary_bridge.promote b ~on_complete
    | Tail b -> Secondary_bridge.begin_takeover b ~on_complete
  end

let reconfigure t =
  let live = t.order in
  match live with
  | [] -> ()
  | head_idx :: _ ->
    let last = List.nth live (List.length live - 1) in
    List.iter
      (fun i ->
        let node = node_of t i in
        (* 1. headship *)
        if i = head_idx then promote_node t node;
        (* 2. diversion targets follow the live chain *)
        (match (upstream t i, node.bridge) with
        | Some up, Tail b ->
          if Secondary_bridge.retarget b (Host.addr up.host) then
            kick_services t node;
          t.on_event (Retargeted (i, up.index))
        | Some up, Merger b ->
          (* in a chain of four or more, a middle level's upstream can
             die while it stays in the middle *)
          if Primary_bridge.retarget b (Host.addr up.host) then begin
            kick_services t node;
            t.on_event (Retargeted (i, up.index))
          end
        | None, _ -> ());
        (* 3. the node at the end of the live chain has nothing below it
           any more: degrade per §6 if it was merging *)
        if i = last then
          match node.bridge with
          | Merger b ->
            if not (Primary_bridge.degraded b) then begin
              Primary_bridge.secondary_failed b;
              t.on_event (Degraded i)
            end
          | Tail _ -> ())
      live

let handle_death t dead =
  if List.mem dead t.order then begin
    t.order <- List.filter (fun i -> i <> dead) t.order;
    (* a node out of the chain neither watches nor is watched *)
    t.watchers <-
      List.filter
        (fun (a, b, hb) ->
          let keep = a <> dead && b <> dead in
          if not keep then Heartbeat.stop hb;
          keep)
        t.watchers;
    t.on_event (Death_detected dead);
    reconfigure t
  end

(* Failure detection: every pair of live nodes runs the detector pair a
   pool's active pair runs.  The node earlier in the chain beats as
   [`Primary], so each side's opposite-role filter accepts exactly the
   other's beats. *)
let pair_up t ~up ~down =
  let watch self peer role =
    let hb =
      Heartbeat.start self.host ~peer:(Host.addr peer.host) ~role
        ~config:t.config ~on_peer_failure:(fun () ->
          handle_death t peer.index)
    in
    t.watchers <- (self.index, peer.index, hb) :: t.watchers
  in
  watch up down `Primary;
  watch down up `Secondary

let replica_of node = (node.host, node.index)
let live_replicas t = List.map (fun i -> replica_of (node_of t i)) t.order

(* ---------------------------------------------------------------- *)

let create ~replicas ~config () =
  (match replicas with
  | _ :: _ :: _ -> ()
  | _ -> invalid_arg "Chain.create: need at least two replicas");
  let service = Host.addr (List.hd replicas) in
  let registry = Failover_config.create_registry config in
  let hot =
    Hot_transfer.create (Host.obs (List.hd replicas)) ~service_addr:service
      ~registry
  in
  let n = List.length replicas in
  let arr = Array.of_list replicas in
  let nodes =
    List.init n (fun i ->
        let host = arr.(i) in
        let bridge =
          if i = 0 then
            Merger
              (Primary_bridge.install host ~registry ~service_addr:service
                 ~secondary_addr:(Host.addr arr.(1))
                 ~output:Primary_bridge.Direct ())
          else if i < n - 1 then
            (* middle replica: snoop + merge + divert upstream *)
            Merger
              (Primary_bridge.install host ~registry ~service_addr:service
                 ~secondary_addr:(Host.addr arr.(i + 1))
                 ~output:(Primary_bridge.Divert_to (Host.addr arr.(i - 1)))
                 ~claim_service:true ())
          else
            Tail
              (Secondary_bridge.install host ~registry ~service_addr:service
                 ~divert_to:(Host.addr arr.(i - 1))
                 ())
        in
        {
          index = i;
          host;
          bridge;
          is_head = i = 0;
          xfer = Hot_transfer.attach hot (host, i);
        })
  in
  let t =
    {
      nodes;
      order = List.init n (fun i -> i);
      next_index = n;
      registry;
      config;
      service;
      hot;
      watchers = [];
      on_event = (fun _ -> ());
    }
  in
  List.iteri
    (fun i up ->
      List.iteri (fun j down -> if i < j then pair_up t ~up ~down) nodes)
    nodes;
  t

let listen t ~port ~on_accept =
  Hot_transfer.listen t.hot ~port on_accept (live_replicas t)

(* live replicas only: a dead node cannot connect, and a rejoined tail
   receives the connection by hot state transfer instead *)
let connect_backend t ~remote ?local_port ~setup () =
  Hot_transfer.connect_backend t.hot ~remote ?local_port setup
    (live_replicas t)

let rejoin t host =
  if not (Host.alive host) then invalid_arg "Chain.rejoin: host is not alive";
  if
    List.exists
      (fun n -> n.host == host && List.mem n.index t.order)
      t.nodes
  then invalid_arg "Chain.rejoin: host is already in the chain";
  (match t.order with
  | [] -> invalid_arg "Chain.rejoin: no live replica to join"
  | _ -> ());
  let last_idx = List.nth t.order (List.length t.order - 1) in
  let prev = node_of t last_idx in
  (match prev.bridge with
  | Tail sb when prev.is_head && not (Secondary_bridge.taken_over sb) ->
    invalid_arg "Chain.rejoin: takeover still in progress"
  | _ -> ());
  let newaddr = Host.addr host in
  (* 1. the previous end of chain becomes a merging level over the
     newcomer *)
  let pb =
    match prev.bridge with
    | Merger b ->
      (* a degraded §6 merger resumes replication toward the new tail *)
      Primary_bridge.reinstate b ~secondary_addr:newaddr;
      b
    | Tail sb ->
      (* the original tail never merged: swap its secondary bridge for
         the merging bridge a middle (or head) node runs *)
      Secondary_bridge.uninstall sb;
      let output =
        match upstream t prev.index with
        | Some up -> Primary_bridge.Divert_to (Host.addr up.host)
        | None -> Primary_bridge.Direct
      in
      (* a middle node claims back the promiscuous snoop and the
         service address that uninstall dropped *)
      let b =
        Primary_bridge.install prev.host ~registry:t.registry
          ~service_addr:t.service ~secondary_addr:newaddr ~output
          ~claim_service:(not prev.is_head) ()
      in
      prev.bridge <- Merger b;
      b
  in
  (* 2. the newcomer joins as the new tail of the live chain.  Under a
     head it diverts to the service address, which the head owns once
     any takeover is over; deeper down, to the node above's own
     address *)
  let idx = t.next_index in
  t.next_index <- idx + 1;
  let divert_to = if prev.is_head then t.service else Host.addr prev.host in
  let sb =
    Secondary_bridge.install host ~registry:t.registry ~service_addr:t.service
      ~divert_to ~only_new_connections:true ()
  in
  let node =
    { index = idx; host; bridge = Tail sb; is_head = false;
      xfer = Hot_transfer.attach t.hot (host, idx) }
  in
  let live = List.map (node_of t) t.order in
  t.nodes <- t.nodes @ [ node ];
  t.order <- t.order @ [ idx ];
  Hot_transfer.start_services t.hot (replica_of node);
  List.iter (fun up -> pair_up t ~up ~down:node) live;
  t.on_event (Rejoined idx);
  (* 3. re-replicate live connections onto the new tail; whatever
     cannot travel is pinned solo, and so is the queued remainder if
     either end leaves the live chain mid-run *)
  Hot_transfer.start t.hot ~survivor:prev.host ~bridge:pb ~xfer:prev.xfer
    ~dst:(Host.addr host)
    ~live:(fun () -> List.mem prev.index t.order && List.mem idx t.order)
    ~on_isolated:(fun ~local_port ~remote ~state ->
      t.on_event (Isolated { local_port; remote; state }))
    ~on_complete:(fun moved -> t.on_event (Transfers_complete moved));
  idx

let kill t i = Host.kill (node_of t i).host
