(* tcpfo — command-line driver for the TCP-failover simulator.

     dune exec bin/tcpfo_cli.exe -- run --seed 5 --stats
     dune exec bin/tcpfo_cli.exe -- run --seed 1 --set role=chain --trace
     dune exec bin/tcpfo_cli.exe -- topo mynet.topo --validate

   [run] replays one soak scenario (lib/fault/soak.ml): the seed draws
   every axis of the scenario table, [--set] overrides single axes by
   label, and the run is checked against the paper's §2 invariants
   exactly as the soak sweep checks it.  The CLI builds no world of its
   own, so what it shows is what the soak tested.  [topo] parses,
   validates and elaborates a declarative topology file. *)

module Engine = Tcpfo_sim.Engine
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry
module World = Tcpfo_host.World
module Topo = Tcpfo_host.Topo
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

(* Parse and validate a topology file, then print the elaborated
   host/segment table — a dry run of exactly what Topo.build would
   construct (same MAC assignment, same declaration order). *)
let run_topo file validate_only =
  let text =
    if file = "-" then In_channel.input_all stdin
    else
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error m ->
        prerr_endline ("tcpfo: " ^ m);
        exit 2
  in
  match Topo.parse text with
  | Error m ->
    prerr_endline ("tcpfo: parse error: " ^ m);
    2
  | Ok spec -> (
    match Topo.validate spec with
    | Error m ->
      prerr_endline ("tcpfo: invalid topology: " ^ m);
      1
    | Ok () ->
      if validate_only then print_endline "topology OK"
      else print_string (Topo.to_table (Topo.build (World.create ()) spec));
      0)

let topo_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Topology spec file ('-' for stdin): lines of 'lan NAME', \
                 'link NAME bw=.. delay=..', 'host NAME ADDR SEGMENT \
                 [gw=ADDR]', 'router NAME SEGMENT LAN_ADDR LINK WAN_ADDR', \
                 'wanhost NAME ADDR LINK', 'group NAME MEMBER MEMBER...', \
                 'service NAME ADDR SEGMENT', 'dispatch NAME SHARD... \
                 service=NAME back=ADDR'; '#' comments.")
  in
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Only parse and validate; print nothing but the verdict.")
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:"Parse, validate and elaborate a declarative topology spec.  \
             Exits 0 when the spec is well formed, 1 when it parses but \
             fails validation, 2 on a parse error.")
    Term.(const run_topo $ file_arg $ validate_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "tcpfo"
             ~doc:"Transparent TCP connection failover simulator (DSN 2003)")
          [ run_cmd; topo_cmd ]))
