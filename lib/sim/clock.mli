(** A scheduling capability handed to protocol components.

    Wrapping the engine behind a [Clock.t] lets a host interpose a
    liveness guard: when the host is killed (crash-fault injection), every
    timer it ever armed becomes inert, exactly as if the kernel stopped
    executing. *)

type t = {
  now : unit -> Time.t;
  schedule : Time.t -> (unit -> unit) -> Engine.event_id;
  (** [schedule delay fn] *)
  cancel : Engine.event_id -> unit;
}

val of_engine : Engine.t -> t
(** Direct, unguarded clock. *)
