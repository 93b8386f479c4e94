(** Seeded failover soak scenarios: one scenario per seed, drawn from an
    ordered table of axes (kill victim and phase, background chaos,
    reply size, repair plan, control-channel loss, pool shape, service
    role, dispatcher fleet, checkpointed connection) and run against a
    full replicated world — a pair or three-replica pool, a three-tier
    chain, or a two-shard dispatcher fleet — built through
    {!Tcpfo_host.Topo} and checked against the paper's correctness
    requirements (§2).

    {b The axis table.}  Axes are drawn in table order from one
    seed-derived RNG.  Each axis has a {e gate} over the raw draws of
    the axes above it: when the gate is false the axis consumes no
    randomness and takes its off value.  Once every axis is drawn, each
    axis's {e force} (over the scenario forced so far) may override the
    draw with the off value.  Gates shape the draw sequence; forces only
    rewrite values — so a new axis appended as a row (gated or forced as
    it needs) leaves every existing seed's scenario untouched.

    Invariants checked by {!run} in every world: the peer reads exactly
    what the application wrote, sees EOF and a clean close and never an
    RST; every segment from the service address stays in the original
    numbering (one ISN, every payload matching the stream at its
    offset); the world reaches the end state its kill plan implies
    (failures detected, repairs settled, pools Normal or degraded as
    expected, a chain back to three replicas) — the same end state stops
    the drive loop; every hot state transfer settles even under a lossy
    control channel, no transfer datagram exceeds the MSS bound, and no
    connection is stranded solo after reaching ESTABLISHED.  Per axis:
    cross traffic completes; a §7.2 backend's reply is assembled by the
    replicas (after a repair, on the restored connection too); a fleet's
    drain connection completes, the victim shard's weight decays (and
    ramps back after repair) while its sibling's never moves, nothing is
    refused or crosses shard isolation; a checkpointed connection under
    a tight retention budget is never reset, keeps its reply stream,
    serves after the transfers settle and never overflows its budget.

    {b Pinned-solo rule.}  A connection that hot state transfer pinned
    solo before it reached ESTABLISHED cannot be snapshotted by design;
    it is exempt from restored-replica checks, and from survival checks
    once no live host holds it and its peer cannot retry it.

    Everything — topology, chaos schedule, kill instant — derives from the
    scenario's seed, so [run (scenario_of_seed s)] replays
    byte-identically, including its metrics snapshot. *)

type victim = Primary | Secondary | Nobody

type phase =
  | Handshake  (** kill during the three-way handshake *)
  | Transfer  (** kill mid-stream *)
  | Fin
      (** kill in the window between the server's FIN and the last ACK *)
  | Idle  (** kill well after the connection closed *)

type chaos =
  | Calm
  | Burst  (** short loss burst on the LAN (through the injector) *)
  | Drops  (** a few deterministic frame drops (through the injector) *)
  | Corruption  (** frames corrupted in flight (through the injector) *)
  | Cross_traffic  (** a second client streams from the pair concurrently *)
  | Pause_client  (** client host paused and resumed mid-connection *)
  | Partition_client  (** client unplugged from the LAN for a few ms *)

type repair =
  | No_repair
  | Repair
      (** reintegrate a fresh host once the kill is absorbed; hot state
          transfer re-replicates the live connections *)
  | Repair_then_rekill
      (** reintegrate, then kill the surviving original too once the
          transfers settle: the connection must survive the second
          failover byte-exactly on the repaired host *)

type pool =
  | Pair  (** the paper's two-host pair *)
  | Pool3 of { rejoin_first : bool }
      (** a three-replica pool with one cold standby: the kill cascades
          into a promotion, and once its transfers settle the CURRENT
          primary is killed too.  With [rejoin_first] a repaired host
          {!Tcpfo_core.Replicated.rejoin}s just before the second kill,
          so the pool ends fully recovered; without it the pool ends
          degraded on its last survivor. *)

type role =
  | Server  (** the pool listens; the client streams the reply down *)
  | Backend_client
      (** §7.2: the pool opens the connection to an unreplicated backend
          (running on the client host) and streams the reply UP from it *)
  | Chain3
      (** a three-tier {!Tcpfo_core.Chain} serves the client; [Primary]
          kills the head, [Secondary] the tail, and repair goes through
          {!Tcpfo_core.Chain.rejoin} *)

type scenario = {
  seed : int;
  victim : victim;
  phase : phase;
  chaos : chaos;
  size : int;  (** reply size in bytes *)
  repair : repair;
  xfer_loss : float;
      (** loss probability of an 8 ms burst opening when the hot state
          transfers begin (a repair, or a pool promotion) *)
  pool : pool;
  role : role;
  fleet : bool;
      (** run the pair behind a {!Tcpfo_dispatch.Dispatch} tier of two
          two-replica shards, killing the shard the connection is
          pinned to *)
  checkpointed : bool;
      (** a long-lived request/reply connection whose application calls
          {!Tcpfo_tcp.Tcb.checkpoint} at every request boundary rides
          alongside, under a retention budget far smaller than its
          lifetime traffic *)
}

type outcome = {
  scenario : scenario;
  violations : string list;  (** empty iff every invariant held *)
  metrics : string;
      (** deterministic {!Tcpfo_obs.Registry.to_json} snapshot — equal
          strings across replays of the same seed *)
}

val scenario_of_seed : int -> scenario

val describe : scenario -> string
(** One line naming the seed and every axis label. *)

val axes : (string * string list) list
(** Every axis in table order, with the labels of its values. *)

val labels : scenario -> (string * string) list
(** [(axis, label)] for every axis, in table order. *)

val override : int -> (string * string) list -> (scenario, string) result
(** [override seed [(axis, label); ...]] is the seed's raw draws with
    each named axis set to the value of that label, then forced exactly
    as in {!scenario_of_seed}: [override seed []] is
    [scenario_of_seed seed], and naming an axis by the label the seed
    already shows changes nothing.  Axes not named keep the seed's draws
    unless a force rewrites them.  [Error] names the row for an unknown
    axis, an unknown label, or a setting that a force rewrites (e.g.
    [role=chain] with [pool=pool3], or [phase=fin] with [kill=nobody]). *)

type pair = (string * string) * (string * string)
(** Two [(axis, label)] settings of distinct axes, in table order. *)

type coverage = {
  reachable : pair list;
      (** every pair some seed can draw, enumerated exhaustively through
          the table's gates and forces *)
  uncovered : pair list;  (** the reachable pairs no given scenario hits *)
}

val coverage : scenario list -> coverage
val pair_to_string : pair -> string

val run : ?on_world:(Tcpfo_host.World.t -> unit) -> scenario -> outcome
(** [on_world] is called with the freshly created world before anything
    is built on it (for harness bookkeeping). *)

val fingerprint : outcome list -> string
(** Hex MD5 over every outcome's description, violations and metrics
    snapshot minus its [engine.*] counters (which count the event
    queue's own work, DESIGN 7.11), in list order.  Two trees that
    simulate the same outcomes give the same digest. *)
