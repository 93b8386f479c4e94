type t = {
  clock : Clock.t;
  mutable busy_until : Time.t;
  mutable total_busy : Time.t;
}

let create clock = { clock; busy_until = Time.zero; total_busy = Time.zero }

let charge t ~cost =
  let cost = Int.max 0 cost in
  t.busy_until <- Int.max (t.clock.Clock.now ()) t.busy_until + cost;
  t.total_busy <- t.total_busy + cost

let run t ~cost fn =
  charge t ~cost;
  ignore (t.clock.Clock.schedule (t.busy_until - t.clock.Clock.now ()) fn)

let busy_until t = t.busy_until
let total_busy t = t.total_busy
