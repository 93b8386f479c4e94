(* Daisy-chained replication — the paper's §1 future work, implemented:
   THREE replicas survive TWO successive crashes while a client holds one
   TCP connection open through all of it.

     dune exec examples/daisy_chain.exe *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Chain = Tcpfo_core.Chain
module Failover_config = Tcpfo_core.Failover_config

let () =
  let world = World.create ~seed:2003 () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"client" ~addr:"10.0.0.10" () in
  let replicas =
    List.init 3 (fun i ->
        World.add_host world lan
          ~name:(Printf.sprintf "replica%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ())
  in
  World.warm_arp (client :: replicas);
  let chain =
    Chain.create ~replicas ~config:Failover_config.default ()
  in
  let log fmt =
    Printf.ksprintf
      (fun s ->
        Printf.printf "[%8.1f ms] %s\n%!" (Time.to_ms (World.now world)) s)
      fmt
  in
  Chain.set_on_event chain (fun e ->
      log "--- %s ---"
        (match e with
        | Chain.Death_detected i -> Printf.sprintf "replica %d declared dead" i
        | Promoted i -> Printf.sprintf "replica %d promoted to head" i
        | Retargeted (i, j) ->
          Printf.sprintf "replica %d now diverts to replica %d" i j
        | Degraded i ->
          Printf.sprintf "replica %d lost its tail, degrades per \xc2\xa76" i
        | Rejoined i -> Printf.sprintf "replica %d rejoined at the tail" i
        | Transfers_complete n ->
          Printf.sprintf "%d connections re-replicated onto the tail" n
        | Isolated { local_port; remote = _, rp; _ } ->
          Printf.sprintf "connection :%d <-> :%d pinned solo" local_port rp));

  (* a counter service: proves all replicas advance through the same
     state, whoever happens to be serving *)
  Chain.listen chain ~port:80 ~on_accept:(fun ~replica tcb ->
      let count = ref 0 in
      Tcb.set_on_data tcb (fun d ->
          String.iter
            (fun ch ->
              if ch = '\n' then begin
                incr count;
                ignore
                  (Tcb.send tcb (Printf.sprintf "count=%d\n" !count))
              end)
            d);
      ignore replica);

  let conn =
    Stack.connect (Host.tcp client) ~remote:(Chain.service_addr chain, 80) ()
  in
  Tcb.set_on_data conn (fun d ->
      String.split_on_char '\n' d
      |> List.iter (fun l -> if l <> "" then log "client got: %s" l));
  let ping () = ignore (Tcb.send conn "ping\n") in
  Tcb.set_on_established conn (fun () ->
      log "connected to the 3-replica chain";
      ping ());

  World.run world ~for_:(Time.ms 100);
  log "### crash 1: killing the head (replica 0) ###";
  Chain.kill chain 0;
  World.run world ~for_:(Time.sec 2.0);
  ping ();
  World.run world ~for_:(Time.sec 1.0);

  log "### crash 2: killing the new head (replica 1) ###";
  Chain.kill chain 1;
  World.run world ~for_:(Time.sec 2.0);
  ping ();
  World.run world ~for_:(Time.sec 1.0);

  log "survivors: %s"
    (String.concat ","
       (List.map string_of_int (Chain.alive chain)));
  log "connection state: %s" (Tcb.state_to_string (Tcb.state conn));
  print_endline "daisy_chain: done"
