(** Scripted fault plans: a tiny DSL for deterministic fault injection.

    A plan is a ';'-separated list of statements, each a trigger, an
    action and an optional probability gate:

    {v
    at 20ms kill primary
    after 5ms pause client
    at 15ms partition secondary for 8ms
    at 10ms drop 3 lan
    at 10ms corrupt 2 lan
    at 30ms loss lan 0.4 for 6ms
    every 10ms x 5 drop 1 lan p=0.5
    v}

    Triggers: [at T] fires at absolute simulated time [T]; [after T]
    fires [T] after installation; [every T \[x N\]] fires every [T]
    (forever, or [N] times).  Durations need a unit: [ns]/[us]/[ms]/[s].
    A trailing [p=F] gates each firing on a draw from the injector's
    seeded rng, so probabilistic plans replay identically for a given
    seed.

    Host actions name a host in the injector's environment; [drop],
    [corrupt] and [loss] name a medium or link.  [pause]/[resume] freeze
    and thaw a host ({!Tcpfo_host.Host.pause} semantics — distinct from
    [kill], which is a permanent fail-stop crash); [partition] detaches
    its traffic (not its timers) for a duration. *)

type trigger =
  | At of Tcpfo_sim.Time.t
  | After of Tcpfo_sim.Time.t
  | Every of Tcpfo_sim.Time.t * int option

type action =
  | Kill of string
  | Pause_host of string
  | Resume_host of string
  | Partition of string * Tcpfo_sim.Time.t
  | Drop_frames of int * string
  | Corrupt of int * string
  | Loss_burst of string * float * Tcpfo_sim.Time.t

type stmt = { trigger : trigger; action : action; prob : float option }
type plan = stmt list

val parse : string -> (plan, string) result
val parse_exn : string -> plan
(** [parse_exn] raises [Invalid_argument] with the parse error. *)

val to_string : plan -> string
(** Round-trips through {!parse}. *)
