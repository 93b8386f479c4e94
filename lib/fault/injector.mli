(** Frame faults on a shared medium, each taking effect when called.

    The injector installs one fault hook per medium
    ({!Tcpfo_net.Medium.set_fault_hook}) the first time a call touches
    that medium, and splits the medium's loss-burst rng from [rng] at
    that moment, so a fault schedule replays byte-identically under a
    fixed world seed.  The injector owns those hooks: do not install
    competing ones on the same media.

    Each frame on a faulted medium first spends the drop budget, then
    the corruption budget, and only then faces an open loss burst, so
    a budget is spent on the frames it was aimed at.  Host faults need
    no injector: schedule {!Tcpfo_host.Host.pause},
    {!Tcpfo_host.Host.resume} or {!Tcpfo_host.Host.set_partitioned}
    directly. *)

type t

val create : Tcpfo_sim.Engine.t -> rng:Tcpfo_util.Rng.t -> t

val drop : t -> Tcpfo_net.Medium.t -> int -> unit
(** Lose the medium's next [n] frames in flight (added to any drop budget
    left); counted as [medium.fault_dropped]. *)

val corrupt : t -> Tcpfo_net.Medium.t -> int -> unit
(** Damage the medium's next [n] frames after the drop budget is spent;
    the receivers' checksums reject them.  Counted as [medium.corrupted]. *)

val loss_burst :
  t -> Tcpfo_net.Medium.t -> p:float -> for_:Tcpfo_sim.Time.t -> unit
(** Lose each frame with probability [p] from now until [for_] later;
    replaces any burst already set on the medium. *)
