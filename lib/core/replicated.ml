module Host = Tcpfo_host.Host
module Tcb = Tcpfo_tcp.Tcb
module Ipaddr = Tcpfo_packet.Ipaddr
module Transfer = Tcpfo_statex.Transfer

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

type t = {
  mutable primary : Host.t;
  mutable secondary : Host.t;
  service_addr : Ipaddr.t;
      (* fixed for the lifetime of the pool: after a primary failure and
         promotion the surviving replica keeps serving it, so it can
         no longer be derived from [Host.addr t.primary] *)
  config : Failover_config.t;
  registry : Failover_config.registry;
  mutable pbridge : Primary_bridge.t;
  mutable sbridge : Secondary_bridge.t;
  mutable xfer_p : Transfer.t;  (* control-channel endpoint on primary *)
  mutable xfer_s : Transfer.t;  (* ... and on secondary *)
  mutable hb_on_primary : Heartbeat.t option;
  mutable hb_on_secondary : Heartbeat.t option;
  (* standbys in promotion order; only the active pair replicates
     connection state — a standby is cold until it is promoted and hot
     state transfer re-replicates the live connections onto it *)
  mutable standbys : Host.t list;
  mutable standby_watch : (Host.t * Heartbeat.t * Heartbeat.t) list;
  (* listener and §7.2 setup hooks, plus the offer scheduler *)
  hot : (role:[ `Primary | `Secondary ] -> Tcb.t -> unit) Hot_transfer.t;
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
  let hb_p =
    Heartbeat.start t.primary ~peer:(Host.addr standby) ~role:`Primary
      ~config:t.config ~on_peer_failure:(fun () ->
        if List.memq standby t.standbys then begin
          t.standbys <- List.filter (fun h -> h != standby) t.standbys;
          disarm_standby t standby;
          emit t (Standby_lost (Host.name standby))
        end)
  in
  let hb_s =
    Heartbeat.start standby ~peer:(Host.addr t.primary) ~role:`Secondary
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

(* --- hot state transfer -------------------------------------------- *)

let as_role role hook tcb = hook ~role tcb

(* A control-channel endpoint on [host]; snapshots only ever land on a
   fresh replica, so they re-attach as the secondary-role copy. *)
let attach_transfer hot host =
  Hot_transfer.attach hot (host, as_role `Secondary)

(* --- failure handling, promotion, reintegration ---------------------- *)

(* watch the secondary from the primary; on failure run §6, then promote
   the next standby (if any) into the vacated secondary role *)
let rec watch_secondary t =
  Heartbeat.start t.primary ~peer:(Host.addr t.secondary) ~role:`Primary
    ~config:t.config ~on_peer_failure:(fun () ->
      if t.status = `Normal then begin
        t.status <- `Secondary_failed;
        Primary_bridge.secondary_failed t.pbridge;
        emit t Secondary_failure_detected;
        promote_next t
      end)

(* watch the primary from the secondary; on failure run the §5 takeover,
   then promote the next standby under the promoted survivor *)
and watch_primary t =
  Heartbeat.start t.secondary ~peer:(Host.addr t.primary) ~role:`Secondary
    ~config:t.config ~on_peer_failure:(fun () ->
      if t.status = `Normal then begin
        t.status <- `Primary_failed;
        emit t Primary_failure_detected;
        Secondary_bridge.begin_takeover t.sbridge ~on_complete:(fun () ->
            emit t Takeover_complete;
            promote_next t)
      end)

(* Cascading failover: the head of the standby list joins the active pair
   through the same path a repaired host does — bridges reinstall, the
   registered services start, and hot state transfer re-replicates every
   live connection.  Standbys the detectors already know to be dead are
   skipped (their [Standby_lost] may still be in flight). *)
and promote_next t =
  match t.standbys with
  | [] -> ()
  | s :: rest ->
    t.standbys <- rest;
    disarm_standby t s;
    if Host.alive s then begin
      emit t (Promoted (Host.name s));
      reintegrate t ~secondary:s
    end
    else promote_next t

(* Role-agnostic reintegration.  Two shapes:

   - the *secondary* failed: the surviving primary keeps its role; the
     fresh host becomes the new secondary.  Live connections are shipped
     shifted by −Δseq into wire space.

   - the *primary* failed: the surviving secondary was promoted by the
     §5 takeover and keeps serving under the service address; the fresh
     host becomes the new secondary of the *promoted* pair.  The
     survivor's TCBs already count in wire space (Δ = 0), so snapshots
     ship unshifted; the survivor swaps its (taken-over) secondary
     bridge for a primary bridge. *)
and reintegrate t ~secondary:fresh =
  (match t.status with
  | `Normal ->
    invalid_arg "Replicated.reintegrate: no failed replica to replace"
  | `Secondary_failed ->
    Option.iter Heartbeat.stop t.hb_on_primary;
    t.secondary <- fresh;
    t.sbridge <-
      Secondary_bridge.install fresh ~registry:t.registry
        ~service_addr:t.service_addr ~only_new_connections:true ();
    t.xfer_s <- attach_transfer t.hot fresh;
    Primary_bridge.reinstate t.pbridge ~secondary_addr:(Host.addr fresh)
  | `Primary_failed ->
    if not (Secondary_bridge.taken_over t.sbridge) then
      invalid_arg "Replicated.reintegrate: takeover still in progress";
    Option.iter Heartbeat.stop t.hb_on_secondary;
    let survivor = t.secondary in
    Secondary_bridge.uninstall t.sbridge;
    t.primary <- survivor;
    t.secondary <- fresh;
    t.pbridge <-
      Primary_bridge.install survivor ~registry:t.registry
        ~service_addr:t.service_addr ~secondary_addr:(Host.addr fresh) ();
    t.sbridge <-
      Secondary_bridge.install fresh ~registry:t.registry
        ~service_addr:t.service_addr ~only_new_connections:true ();
    t.xfer_p <- t.xfer_s;
    t.xfer_s <- attach_transfer t.hot fresh);
  (* start the registered services on the new replica *)
  Hot_transfer.start_services t.hot (fresh, as_role `Secondary);
  (* restart mutual fault detection, and re-point the remaining standby
     watchers at the (possibly new) primary *)
  t.status <- `Normal;
  t.hb_on_primary <- Some (watch_secondary t);
  t.hb_on_secondary <- Some (watch_primary t);
  arm_standbys t;
  emit t Reintegrated;
  (* re-replicate live connections onto the fresh replica.  Every service
     connection on the survivor is either shipped or pinned solo —
     nothing is left in a state where it could half-merge with the fresh
     replica's different sequence numbers.  A failure while offers are
     still queued ends the run: the status leaves [`Normal] and the
     remainder is pinned solo. *)
  Hot_transfer.start t.hot ~survivor:t.primary ~bridge:t.pbridge ~xfer:t.xfer_p
    ~dst:(Host.addr fresh)
    ~live:(fun () -> t.status = `Normal)
    ~on_isolated:(fun ~local_port ~remote ~state ->
      emit t (Isolated { local_port; remote; state }))
    ~on_complete:(fun moved -> emit t (Transfers_complete moved))

(* A repaired host rejoins at the back of the pool.  If the pool is
   degraded (a failure happened and no standby was left to promote), the
   newcomer pairs with the survivor directly — the N = 2 reintegration;
   if a §5 takeover is still running it queues and the takeover's
   completion promotes it. *)
let rejoin t host =
  if not (Host.alive host) then
    invalid_arg "Replicated.rejoin: host is not alive";
  if
    host == t.primary || host == t.secondary
    || List.exists (fun h -> h == host) t.standbys
  then invalid_arg "Replicated.rejoin: host is already in the pool";
  match t.status with
  | `Normal ->
    t.standbys <- t.standbys @ [ host ];
    t.standby_watch <- t.standby_watch @ [ watch_standby t host ];
    emit t (Rejoined (Host.name host))
  | `Primary_failed when not (Secondary_bridge.taken_over t.sbridge) ->
    t.standbys <- t.standbys @ [ host ];
    emit t (Rejoined (Host.name host))
  | `Primary_failed | `Secondary_failed ->
    emit t (Rejoined (Host.name host));
    reintegrate t ~secondary:host

(* --- construction --------------------------------------------------- *)

let create_pool ~replicas ~config () =
  let primary, secondary, standbys =
    match replicas with
    | p :: s :: rest -> (p, s, rest)
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
  let service_addr = Host.addr primary in
  let secondary_addr = Host.addr secondary in
  let registry = Failover_config.create_registry config in
  let pbridge =
    Primary_bridge.install primary ~registry ~service_addr ~secondary_addr ()
  in
  let sbridge = Secondary_bridge.install secondary ~registry ~service_addr () in
  let hot = Hot_transfer.create (Host.obs primary) ~service_addr ~registry in
  let t =
    {
      primary;
      secondary;
      service_addr;
      config;
      registry;
      pbridge;
      sbridge;
      xfer_p = attach_transfer hot primary;
      xfer_s = attach_transfer hot secondary;
      hb_on_primary = None;
      hb_on_secondary = None;
      standbys;
      standby_watch = [];
      hot;
      status = `Normal;
      on_event = (fun _ -> ());
      listeners = [];
    }
  in
  t.hb_on_primary <- Some (watch_secondary t);
  t.hb_on_secondary <- Some (watch_primary t);
  arm_standbys t;
  t

(* the original two-host API is the N = 2 pool *)
let create ~primary ~secondary ~config () =
  create_pool ~replicas:[ primary; secondary ] ~config ()

let service_addr t = t.service_addr
let registry t = t.registry
let primary_bridge t = t.pbridge
let secondary_bridge t = t.sbridge
let set_on_event t fn = t.on_event <- fn
let add_on_event t fn = t.listeners <- t.listeners @ [ fn ]
let status t = t.status
let standbys t = t.standbys
let replicas t = t.primary :: t.secondary :: t.standbys
let pending_transfers t = Hot_transfer.pending t.hot
let transfer_failures t = Hot_transfer.failures t.hot
let transfer_stats t = Transfer.stats t.xfer_p

let active_pair t =
  [ (t.primary, as_role `Primary); (t.secondary, as_role `Secondary) ]

let listen t ~port ~on_accept =
  Hot_transfer.listen t.hot ~port on_accept (active_pair t)

let connect_backend t ~remote ?local_port ~setup () =
  Hot_transfer.connect_backend t.hot ~remote ?local_port setup (active_pair t)

let kill_primary t = Host.kill t.primary
let kill_secondary t = Host.kill t.secondary
