(** Verdicts returned by the fault-injection hook on a {!Medium}.

    [Corrupt] models in-flight payload damage: the frame still occupies
    the wire, but the receiver's FCS/checksum discards it, so the
    transport experiences it as loss.  It is counted separately from
    [Drop] so that configured loss, congestion drops and injected
    corruption remain distinguishable in metrics snapshots. *)

type verdict = Pass | Drop | Corrupt
