module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Medium = Tcpfo_net.Medium
module Fault_hook = Tcpfo_net.Fault_hook

(* Fault state of one medium, consulted by the hook installed on it. *)
type medium_state = {
  medium : Medium.t;
  mutable drop_remaining : int;
  mutable corrupt_remaining : int;
  mutable burst_until : Time.t;
  mutable burst_prob : float;
  burst_rng : Rng.t;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable media : medium_state list;
}

let create engine ~rng = { engine; rng; media = [] }

let verdict engine st =
  if st.drop_remaining > 0 then begin
    st.drop_remaining <- st.drop_remaining - 1;
    Fault_hook.Drop
  end
  else if st.corrupt_remaining > 0 then begin
    st.corrupt_remaining <- st.corrupt_remaining - 1;
    Fault_hook.Corrupt
  end
  else if
    Engine.now engine < st.burst_until
    && st.burst_prob > 0.0
    && Rng.bool st.burst_rng st.burst_prob
  then Fault_hook.Drop
  else Fault_hook.Pass

(* The hook, its state and its rng come into being the first time a call
   touches the medium. *)
let state t medium =
  match List.find_opt (fun st -> st.medium == medium) t.media with
  | Some st -> st
  | None ->
    let st =
      { medium; drop_remaining = 0; corrupt_remaining = 0; burst_until = 0;
        burst_prob = 0.0; burst_rng = Rng.split t.rng }
    in
    t.media <- st :: t.media;
    Medium.set_fault_hook medium (Some (fun _ -> verdict t.engine st));
    st

let drop t medium n =
  let st = state t medium in
  st.drop_remaining <- st.drop_remaining + n

let corrupt t medium n =
  let st = state t medium in
  st.corrupt_remaining <- st.corrupt_remaining + n

let loss_burst t medium ~p ~for_ =
  let st = state t medium in
  st.burst_until <- Engine.now t.engine + for_;
  st.burst_prob <- p
