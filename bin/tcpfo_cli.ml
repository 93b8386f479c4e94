(* tcpfo — command-line driver for the TCP-failover simulator.

     dune exec bin/tcpfo_cli.exe -- run --seed 5 --stats
     dune exec bin/tcpfo_cli.exe -- run --seed 1 --set role=chain --trace

   [run] replays one soak scenario (lib/fault/soak.ml): the seed draws
   every axis of the scenario table, [--set] overrides single axes by
   label, and the run is checked against the paper's §2 invariants
   exactly as the soak sweep checks it.  The CLI builds no world of its
   own, so what it shows is what the soak tested. *)

module Engine = Tcpfo_sim.Engine
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry
module World = Tcpfo_host.World
module Soak = Tcpfo_fault.Soak
open Cmdliner

let print_stats world =
  Printf.printf "engine: %d events processed in %.3f simulated ms\n"
    (Engine.processed (World.engine world))
    (float_of_int (World.now world) /. 1e6);
  print_string (Registry.dump (World.metrics world))

let rec parse_sets = function
  | [] -> Ok []
  | s :: rest -> (
    match String.index_opt s '=' with
    | None -> Error (Printf.sprintf "--set %S: expected AXIS=LABEL" s)
    | Some i ->
      let axis = String.sub s 0 i
      and label = String.sub s (i + 1) (String.length s - i - 1) in
      Result.map (List.cons (axis, label)) (parse_sets rest))

let run seed sets trace stats =
  match Result.bind (parse_sets sets) (Soak.override seed) with
  | Error m ->
    prerr_endline ("tcpfo: " ^ m);
    2
  | Ok sc ->
    print_endline (Soak.describe sc);
    let world = ref None in
    let on_world w =
      world := Some w;
      if trace then ignore (Event.Bus.attach_console (Obs.bus (World.obs w)))
    in
    let o = Soak.run ~on_world sc in
    List.iter (Printf.printf "violation: %s\n") o.violations;
    Printf.printf "[run] {\"seed\":%d,\"violations\":%d,\"md5\":%S}\n%!" seed
      (List.length o.violations)
      (Soak.fingerprint [ o ]);
    if stats then Option.iter print_stats !world;
    if o.violations = [] then 0 else 1

let run_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Soak seed whose scenario to replay.")
  in
  let set_arg =
    Arg.(value & opt_all string [] & info [ "set" ] ~docv:"AXIS=LABEL"
           ~doc:("Override one axis of the seed's scenario (repeatable).  \
                  Axes and labels, from the soak's table: "
                ^ String.concat "; "
                    (List.map
                       (fun (axis, labels) ->
                         axis ^ " = " ^ String.concat " | " labels)
                       Soak.axes)
                ^ ".  A setting that the table's gates or forces would \
                   rewrite is refused."))
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print every event of the world's event bus on stderr.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Dump the engine's event count and the metrics registry \
                 after the run.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Replay one soak scenario and check the paper's invariants.  \
             Prints the scenario, each violation, and a [run] line whose \
             md5 equals the soak fingerprint of that one seed.  Exits 0 \
             when every invariant held, 1 on a violation, 2 on a bad \
             --set.")
    Term.(const run $ seed_arg $ set_arg $ trace_arg $ stats_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "tcpfo"
             ~doc:"Transparent TCP connection failover simulator (DSN 2003)")
          [ run_cmd ]))
