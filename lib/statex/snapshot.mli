(** The unit of hot state transfer: one connection's full TCB image plus
    the bridge-side state the surviving host held for it.

    The TCB image travels in the *wire* (client-visible) sequence space:
    a surviving primary shifts its snapshot by −Δseq before shipping
    ({!Tcpfo_tcp.Tcb.shift_snapshot}); a promoted secondary's state is
    already in wire space (Δ = 0). *)

type role = [ `Server | `Client ]
(** Which side of the connection the replicated application holds:
    [`Server] for {!Tcpfo_tcp.Stack.listen}-accepted connections,
    [`Client] for §7.2 server-initiated ([connect_backend]) connections.
    The installer on the receiving replica needs it to rebuild the
    application layer: server-role connections re-attach through the
    registered listener, client-role connections through the
    [connect_backend] setup registered for the remote endpoint. *)

type conn = {
  tcb : Tcpfo_tcp.Tcb.snapshot;
  role : role;
  delta : int;
      (** Δseq the surviving bridge applied for this connection — carried
          for validation and metrics; the restored pair always starts at
          Δ = 0 with respect to the shipped image. *)
  next_wire_seq : Tcpfo_util.Seq32.t;
      (** Merge frontier (next un-emitted wire sequence) at capture. *)
  held_segments : int;
      (** Segments parked in the quiesce hold-back queue at capture. *)
  solo : bool;  (** Whether the connection was running unreplicated. *)
}

val encode : conn -> string
(** Binary image wrapped in the versioned, checksummed envelope.

    The body has one form: the checkpoint replay base
    ([tcb.sn_replay_base]), then the TCB layout, whose retained-input
    list holds only deliveries past that base, then the bridge-side
    tail.  A checkpointing long-lived connection thus ships kilobytes
    instead of its lifetime history; base 0 is the whole-history image. *)

val decode : string -> (conn, string) result
(** Inverse of {!encode}.  Any corruption, truncation, trailing bytes or
    envelope version other than {!Codec.version} yields [Error]. *)
