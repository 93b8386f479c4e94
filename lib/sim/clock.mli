(** A scheduling capability handed to protocol components.

    A host builds the only clocks: its [schedule] passes the host's guard
    to {!Engine.schedule_guarded}, so when the host is killed
    (crash-fault injection) every timer it ever armed becomes inert,
    exactly as if the kernel stopped executing, and while it is paused
    the bodies wait for it to resume. *)

type t = {
  now : unit -> Time.t;
  schedule : Time.t -> (unit -> unit) -> Engine.event_id;
  (** [schedule delay fn] *)
  cancel : Engine.event_id -> unit;
}

