type t = {
  clock : Clock.t;
  mutable busy_until : Time.t;
  mutable total_busy : Time.t;
}

let create clock = { clock; busy_until = Time.zero; total_busy = Time.zero }

let run t ~cost fn =
  let now = t.clock.Clock.now () in
  let start = Int.max now t.busy_until in
  let finish = start + Int.max 0 cost in
  t.busy_until <- finish;
  t.total_busy <- t.total_busy + Int.max 0 cost;
  ignore (t.clock.Clock.schedule (finish - now) fn)

let busy_until t = t.busy_until
let total_busy t = t.total_busy
