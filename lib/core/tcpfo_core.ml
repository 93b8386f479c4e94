(* Library entry point: re-export the public modules in dependency order
   so `Tcpfo_core.Replicated` etc. read naturally. *)

module Failover_config = Failover_config
module Heartbeat = Heartbeat
module Primary_bridge = Primary_bridge
module Secondary_bridge = Secondary_bridge
module Hot_transfer = Hot_transfer
module Replicated = Replicated
module Chain = Chain
