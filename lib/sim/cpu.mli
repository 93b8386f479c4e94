(** A serialized processing resource (one CPU per host).

    Per-packet protocol costs are not just latency: a kernel processes one
    packet at a time, so a host saturates when the aggregate per-packet
    cost approaches the packet inter-arrival time.  This is the effect
    that makes the paper's primary server — which handles the client's
    datagrams, the secondary's diverted copies, *and* the merged output —
    the throughput bottleneck in Figure 5.

    Work items run FIFO: each occupies the CPU for its [cost], starting
    when all previously submitted work has finished. *)

type t

val create : Clock.t -> t

val charge : t -> cost:Time.t -> unit
(** [charge t ~cost] occupies the CPU for [cost], queued behind all
    earlier work, with nothing to run when it finishes: work whose only
    effect is the time it takes (a promiscuously captured frame nobody
    keeps). *)

val run : t -> cost:Time.t -> (unit -> unit) -> unit
(** [run t ~cost fn] is {!charge} plus one event: [fn] runs when the
    charged work completes. *)

val busy_until : t -> Time.t
val total_busy : t -> Time.t
(** Cumulative busy time — utilization telemetry for benchmarks. *)
