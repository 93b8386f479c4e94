(** Tunables of the TCP stack.

    Only what a workload or a test actually varies is a field.  Everything
    else is a fixed parameter of the paper's testbed era (FreeBSD 4.4-ish)
    inside {!Tcb}: a 64 KB send buffer (the knee in Figure 3), Jacobson
    RTO bounded to 200 ms – 64 s starting at 1 s, 100 ms delayed ACKs,
    Reno congestion control with fast retransmit, 5 SYN and 10 data
    retries.  MSS is the only TCP option the stack negotiates; DESIGN
    §7.19 says which options went and why. *)

type t = {
  mss : int;  (** MSS we advertise in our SYN (§7.1 min-MSS merge) *)
  recv_buf_size : int;
      (** receive buffer; the advertised window is capped at 65535 *)
  msl : Tcpfo_sim.Time.t;  (** TIME_WAIT lasts 2×MSL (§8 teardown) *)
  iss_override : int option;
      (** force every new connection's initial send sequence number
          (normally random).  For tests that must cross the 2^32
          sequence-space boundary mid-transfer. *)
  retention_budget : int;
      (** Byte cap on input retained for hot state transfer.  A
          connection whose in-order deliveries outgrow the budget drops
          its retained history and becomes non-transferable (it is
          isolated at the next reintegration instead of re-replicated,
          unless a later {!Tcb.checkpoint} resurrects retention); the
          overflow is surfaced through the [statex.retention_*]
          counters.  Default 1 MiB. *)
}

val default : t
