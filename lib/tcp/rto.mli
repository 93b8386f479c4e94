(** Retransmission-timeout estimation (RFC 6298: Jacobson/Karels SRTT and
    RTTVAR, Karn's rule enforced by the caller, exponential backoff). *)

type t

type instruments
(** The shared counter [rto_backoffs] and histogram [rtt_us] (every RTT
    measurement, in microseconds). *)

val instruments : Tcpfo_obs.Obs.t -> instruments
(** Resolve the instruments under [obs] (normally the stack's [tcp]
    scope), once per owner rather than once per estimator. *)

val create :
  instruments ->
  init:Tcpfo_sim.Time.t ->
  min:Tcpfo_sim.Time.t ->
  max:Tcpfo_sim.Time.t ->
  unit ->
  t

val sample : t -> Tcpfo_sim.Time.t -> unit
(** Feed a round-trip measurement from an un-retransmitted segment. *)

val current : t -> Tcpfo_sim.Time.t
(** RTO to arm now, including any backoff. *)

val backoff : t -> unit
(** Double the timeout after a retransmission (capped at [max]). *)

val reset_backoff : t -> unit
(** Called when new data is acknowledged. *)

val srtt : t -> Tcpfo_sim.Time.t option
(** Smoothed RTT, if at least one sample has been taken. *)

(** Portable estimator state for hot state transfer: the smoothed RTT,
    its variance, the pre-backoff timeout and the backoff exponent. *)
type snapshot = {
  s_srtt : float option;
  s_rttvar : float;
  s_base : int;
  s_shift : int;
}

val export : t -> snapshot

val import : t -> snapshot -> unit
(** Overwrite the estimator state with a previously exported snapshot
    (bounds re-clamped against this instance's min/max). *)
