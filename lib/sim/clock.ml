type t = {
  now : unit -> Time.t;
  schedule : Time.t -> (unit -> unit) -> Engine.event_id;
  cancel : Engine.event_id -> unit;
}

let of_engine engine =
  {
    now = (fun () -> Engine.now engine);
    schedule = (fun delay fn -> Engine.schedule engine ~delay fn);
    cancel = (fun id -> Engine.cancel engine id);
  }
