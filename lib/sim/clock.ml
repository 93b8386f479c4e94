type t = {
  now : unit -> Time.t;
  schedule : Time.t -> (unit -> unit) -> Engine.event_id;
  cancel : Engine.event_id -> unit;
}

