module Eth_frame = Tcpfo_packet.Eth_frame
module Macaddr = Tcpfo_packet.Macaddr
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type t = {
  mac : Macaddr.t;
  medium : Medium.t;
  mutable port : Medium.port option;
  mutable partitioned : bool;
  mutable rx : Eth_frame.t -> addressed_to_me:bool -> unit;
  rx_count : Registry.counter;
  tx_count : Registry.counter;
}

let create _engine ~mac ?obs medium =
  let obs =
    Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "nic"
  in
  let t =
    { mac; medium; port = None; partitioned = false;
      rx = (fun _ ~addressed_to_me:_ -> ());
      rx_count = Obs.counter obs "rx"; tx_count = Obs.counter obs "tx" }
  in
  (* the medium's station table filters: whatever arrives is taken *)
  let deliver frame ~addressed_to_me =
    Registry.Counter.incr t.rx_count;
    t.rx frame ~addressed_to_me
  in
  t.port <- Some (Medium.attach_station medium ~mac ~deliver);
  t

let mac t = t.mac

let set_promiscuous t ?host v =
  match t.port with
  | Some p -> Medium.set_promiscuous t.medium p ?host v
  | None -> ()

let add_address t a =
  match t.port with Some p -> Medium.add_address t.medium p a | None -> ()

let set_partitioned t v =
  t.partitioned <- v;
  match t.port with Some p -> Medium.set_partitioned p v | None -> ()

let partitioned t = t.partitioned
let set_rx t fn = t.rx <- fn
let up t = t.port <> None

let send t ~dst payload =
  match t.port with
  | None -> ()
  | Some _ when t.partitioned -> ()
  | Some port ->
    Registry.Counter.incr t.tx_count;
    Medium.transmit t.medium port (Eth_frame.make ~src:t.mac ~dst payload)

let shutdown t =
  match t.port with
  | None -> ()
  | Some port ->
    Medium.detach t.medium port;
    t.port <- None
