module Host = Tcpfo_host.Host
module Tcb = Tcpfo_tcp.Tcb
module Ipaddr = Tcpfo_packet.Ipaddr
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event

type event =
  | Secondary_failure_detected
  | Primary_failure_detected
  | Takeover_complete
  | Reintegrated
  | Transfers_complete of int
  | Promoted of string
  | Standby_lost of string
  | Rejoined of string
  | Isolated of {
      local_port : int;
      remote : Ipaddr.t * int;
      state : Tcb.state;
    }

let event_to_string = function
  | Secondary_failure_detected -> "secondary failure detected"
  | Primary_failure_detected -> "primary failure detected"
  | Takeover_complete -> "IP takeover complete"
  | Reintegrated -> "replica reintegrated"
  | Transfers_complete n ->
    Printf.sprintf "hot state transfer done: %d connections re-replicated" n
  | Promoted name -> Printf.sprintf "standby %s promoted into the active pair" name
  | Standby_lost name -> Printf.sprintf "standby %s declared dead" name
  | Rejoined name -> Printf.sprintf "%s joined the back of the pool" name
  | Isolated { local_port; remote = ra, rp; state } ->
    Printf.sprintf
      "connection :%d <-> %s:%d demoted to solo in %s (not transferred)"
      local_port (Ipaddr.to_string ra) rp (Tcb.state_to_string state)

(* The active pair is a two-replica {!Chain}: it owns detection, the
   §5 takeover, the §6 degrade and re-pairing (including hot state
   transfer).  A pool adds only what a chain has no notion of — cold
   standbys, its one-failure-at-a-time status, and its own listeners —
   and speaks its own events by translating the chain's. *)
type t = {
  chain : Chain.t;
  config : Failover_config.t;
  (* chain indices of the active pair; a dead member stays until its
     replacement is promoted *)
  mutable primary : int;
  mutable secondary : int;
  (* standbys in promotion order; only the active pair replicates
     connection state — a standby is cold until it is promoted and hot
     state transfer re-replicates the live connections onto it.  A host
     that rejoins while a §5 takeover is in flight waits here too,
     unwatched, until the takeover's completion promotes it. *)
  mutable standbys : Host.t list;
  mutable standby_watch : (Host.t * Heartbeat.t * Heartbeat.t) list;
  mutable status : [ `Normal | `Primary_failed | `Secondary_failed ];
  mutable on_event : event -> unit;
  (* additional listeners ({!add_on_event}) fired after [on_event]: the
     dispatcher tier's health model taps the pool here without stealing
     the application's callback *)
  mutable listeners : (event -> unit) list;
}

let emit t e =
  t.on_event e;
  List.iter (fun f -> f e) t.listeners

let primary_host t = Chain.host t.chain t.primary

(* --- standby liveness ------------------------------------------------ *)

(* One detector pair per standby: the primary watches the standby (so a
   silently dead standby is dropped from the pool instead of being
   promoted into a black hole much later) and the standby beacons to —
   and watches — the primary.  The standby-side detector takes no action
   of its own: promotion is driven by the active pair's §5/§6 machinery,
   never by a cold replica's opinion. *)
let disarm_standby t host =
  t.standby_watch <-
    List.filter
      (fun (h, hb_p, hb_s) ->
        if h == host then begin
          Heartbeat.stop hb_p;
          Heartbeat.stop hb_s;
          false
        end
        else true)
      t.standby_watch

let watch_standby t standby =
  let primary = primary_host t in
  let hb_p =
    Heartbeat.start primary ~peer:(Host.addr standby) ~role:`Primary
      ~config:t.config ~on_peer_failure:(fun () ->
        if List.memq standby t.standbys then begin
          t.standbys <- List.filter (fun h -> h != standby) t.standbys;
          disarm_standby t standby;
          emit t (Standby_lost (Host.name standby))
        end)
  in
  let hb_s =
    Heartbeat.start standby ~peer:(Host.addr primary) ~role:`Secondary
      ~config:t.config
      ~on_peer_failure:(fun () -> ())
  in
  (standby, hb_p, hb_s)

(* Re-point every standby watcher at the current primary (promotions move
   the primary role, and with it the watching end). *)
let arm_standbys t =
  List.iter
    (fun (_, hb_p, hb_s) ->
      Heartbeat.stop hb_p;
      Heartbeat.stop hb_s)
    t.standby_watch;
  t.standby_watch <- List.map (fun s -> watch_standby t s) t.standbys

(* --- the active pair ------------------------------------------------- *)

(* a pool's primary always runs the merging bridge and its secondary the
   secondary bridge: a fresh host always rejoins as the tail *)
let primary_bridge t =
  match Chain.bridge t.chain t.primary with
  | Chain.Merger b -> b
  | Chain.Tail _ -> invalid_arg "Replicated.primary_bridge: no merging bridge"

let secondary_bridge t =
  match Chain.bridge t.chain t.secondary with
  | Chain.Tail b -> b
  | Chain.Merger _ ->
    invalid_arg "Replicated.secondary_bridge: no secondary bridge"

let takeover_in_flight t =
  t.status = `Primary_failed
  && not (Secondary_bridge.taken_over (secondary_bridge t))

(* Role-agnostic reintegration is the chain's rejoin at the tail of the
   pair's survivor: after a *secondary* failure the surviving primary's
   degraded bridge is reinstated; after a *primary* failure the
   survivor, promoted by the §5 takeover, keeps serving under the
   service address and swaps its secondary bridge for a merging one.
   The chain then starts the services on the fresh host, pairs the
   detectors and re-replicates every live connection; {!on_chain_event}
   finishes the pool's half when it reports [Rejoined]. *)
let reintegrate t ~secondary:fresh =
  if t.status = `Normal then
    invalid_arg "Replicated.reintegrate: no failed replica to replace";
  if takeover_in_flight t then
    invalid_arg "Replicated.reintegrate: takeover still in progress";
  ignore (Chain.rejoin t.chain fresh)

(* Cascading failover: the head of the standby list joins the active pair
   through the same path a repaired host does.  Standbys the detectors
   already know to be dead are skipped (their [Standby_lost] may still be
   in flight). *)
let rec promote_next t =
  match t.standbys with
  | [] -> ()
  | s :: rest ->
    t.standbys <- rest;
    disarm_standby t s;
    if Host.alive s then begin
      let obs = Host.obs s in
      if Obs.tracing obs then
        Obs.emit obs ~at:((Host.clock s).now ())
          (Event.Promoted { host = Host.name s });
      emit t (Promoted (Host.name s));
      reintegrate t ~secondary:s
    end
    else promote_next t

(* The chain reports a secondary death twice, as [Death_detected] and
   then as the primary's §6 [Degraded]; the pool speaks once, after the
   flush.  A primary death is reported before its §5 takeover begins. *)
let on_chain_event t = function
  | Chain.Death_detected i when i = t.primary ->
    t.status <- `Primary_failed;
    emit t Primary_failure_detected
  | Chain.Degraded _ ->
    t.status <- `Secondary_failed;
    emit t Secondary_failure_detected;
    promote_next t
  | Chain.Promoted _ ->
    emit t Takeover_complete;
    promote_next t
  | Chain.Rejoined fresh ->
    t.primary <- Chain.head t.chain;
    t.secondary <- fresh;
    t.status <- `Normal;
    arm_standbys t;
    emit t Reintegrated
  | Chain.Transfers_complete moved -> emit t (Transfers_complete moved)
  | Chain.Isolated { local_port; remote; state } ->
    emit t (Isolated { local_port; remote; state })
  | Chain.Death_detected _ | Chain.Retargeted _ -> ()

(* A repaired host rejoins at the back of the pool.  If the pool is
   degraded (a failure happened and no standby was left to promote), the
   newcomer pairs with the survivor directly — the N = 2 reintegration;
   if a §5 takeover is still running it queues and the takeover's
   completion promotes it. *)
let rejoin t host =
  if not (Host.alive host) then
    invalid_arg "Replicated.rejoin: host is not alive";
  if
    host == primary_host t
    || host == Chain.host t.chain t.secondary
    || List.exists (fun h -> h == host) t.standbys
  then invalid_arg "Replicated.rejoin: host is already in the pool";
  if t.status = `Normal then begin
    t.standbys <- t.standbys @ [ host ];
    t.standby_watch <- t.standby_watch @ [ watch_standby t host ];
    emit t (Rejoined (Host.name host))
  end
  else if takeover_in_flight t then begin
    t.standbys <- t.standbys @ [ host ];
    emit t (Rejoined (Host.name host))
  end
  else begin
    emit t (Rejoined (Host.name host));
    reintegrate t ~secondary:host
  end

(* --- construction --------------------------------------------------- *)

let create_pool ~replicas ~config () =
  let pair, standbys =
    match replicas with
    | p :: s :: rest -> ([ p; s ], rest)
    | _ -> invalid_arg "Replicated.create_pool: need at least two replicas"
  in
  let rec distinct = function
    | [] -> true
    | h :: rest -> (not (List.exists (fun h' -> h' == h) rest)) && distinct rest
  in
  if not (distinct replicas) then
    invalid_arg "Replicated.create_pool: duplicate replica host";
  List.iter
    (fun h ->
      if not (Host.alive h) then
        invalid_arg
          ("Replicated.create_pool: replica " ^ Host.name h ^ " is not alive"))
    replicas;
  let t =
    {
      chain = Chain.create ~replicas:pair ~config ();
      config;
      primary = 0;
      secondary = 1;
      standbys;
      standby_watch = [];
      status = `Normal;
      on_event = (fun _ -> ());
      listeners = [];
    }
  in
  Chain.set_on_event t.chain (on_chain_event t);
  arm_standbys t;
  t

(* the original two-host API is the N = 2 pool *)
let create ~primary ~secondary ~config () =
  create_pool ~replicas:[ primary; secondary ] ~config ()

let service_addr t = Chain.service_addr t.chain
let registry t = Chain.registry t.chain
let set_on_event t fn = t.on_event <- fn
let add_on_event t fn = t.listeners <- t.listeners @ [ fn ]
let status t = t.status
let standbys t = t.standbys
let replicas t = primary_host t :: Chain.host t.chain t.secondary :: t.standbys
let pending_transfers t = Chain.pending_transfers t.chain
let transfer_failures t = Chain.transfer_failures t.chain
let transfer_stats t = Chain.transfer_stats t.chain

(* the first replica keeps the [`Primary] role in its hooks for good;
   every other one — the original secondary and each fresh host — runs
   them as [`Secondary] *)
let as_role hook ~replica tcb =
  hook ~role:(if replica = 0 then `Primary else `Secondary) tcb

let listen t ~port ~on_accept =
  Chain.listen t.chain ~port ~on_accept:(as_role on_accept)

let connect_backend t ~remote ?local_port ~setup () =
  Chain.connect_backend t.chain ~remote ?local_port ~setup:(as_role setup) ()

let kill_primary t = Chain.kill t.chain t.primary
let kill_secondary t = Chain.kill t.chain t.secondary
