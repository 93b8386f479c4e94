module Time = Tcpfo_sim.Time

type t = {
  service_ports : int list;
  heartbeat_period : Time.t;
  detector_timeout : Time.t;
  bridge_cost : Time.t;
  takeover_processing : Time.t;
  use_min_ack : bool;
  use_min_window : bool;
}

let default =
  {
    service_ports = [];
    heartbeat_period = Time.ms 10;
    detector_timeout = Time.ms 30;
    bridge_cost = Time.us 8;
    takeover_processing = Time.us 200;
    use_min_ack = true;
    use_min_window = true;
  }

let make ?(service_ports = [])
    ?(heartbeat_period = default.heartbeat_period)
    ?(detector_timeout = default.detector_timeout)
    ?(bridge_cost = default.bridge_cost)
    ?(takeover_processing = default.takeover_processing)
    ?(use_min_ack = default.use_min_ack)
    ?(use_min_window = default.use_min_window) () =
  { service_ports; heartbeat_period; detector_timeout;
    bridge_cost; takeover_processing; use_min_ack; use_min_window }

type registry = {
  config : t;
  mutable extra_local : int list;
  mutable extra_remote : int list;
}

let create_registry config = { config; extra_local = []; extra_remote = [] }
let config r = r.config

(* port membership runs on every segment the bridges see; [List.mem]
   would compare through [compare_val] *)
let rec mem (p : int) = function [] -> false | q :: l -> p = q || mem p l

let register_endpoint r ~local_port =
  if not (mem local_port r.extra_local) then
    r.extra_local <- local_port :: r.extra_local

let register_remote r ~remote_port =
  if not (mem remote_port r.extra_remote) then
    r.extra_remote <- remote_port :: r.extra_remote

let is_failover_local_port r p =
  mem p r.config.service_ports || mem p r.extra_local

let is_failover_remote_port r p = mem p r.extra_remote

let is_failover_conn r ~local_port ~remote_port =
  is_failover_local_port r local_port
  || is_failover_remote_port r remote_port
