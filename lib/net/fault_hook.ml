(* Verdict type for the fault-injection hook that Medium exposes.  A hook
   sees each frame at the moment the wire decides its fate and can force
   one of three outcomes.  [Corrupt] models in-flight payload damage: the
   bits still occupy the wire for their full serialization time, but the
   receiving station's FCS/checksum discards the frame, so from the
   transport's point of view it behaves like loss — it is counted
   separately so experiments can tell configured loss, congestion and
   injected corruption apart. *)

type verdict =
  | Pass  (** leave the frame alone *)
  | Drop  (** lose it in flight *)
  | Corrupt  (** damage it in flight; the receiver's checksum rejects it *)
