module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Medium = Tcpfo_net.Medium
module Nic = Tcpfo_net.Nic
module Eth_frame = Tcpfo_packet.Eth_frame
module Macaddr = Tcpfo_packet.Macaddr
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry
module Cpu = Tcpfo_sim.Cpu
module Eth_iface = Tcpfo_ip.Eth_iface
module Arp_packet = Tcpfo_packet.Arp_packet
module Ip_layer = Tcpfo_ip.Ip_layer

let mk_frame ~src ~dst n =
  Eth_frame.make ~src:(Macaddr.of_int src) ~dst:(Macaddr.of_int dst)
    (Eth_frame.Ip
       (Ipv4_packet.make ~src:(Ipaddr.of_int 1) ~dst:(Ipaddr.of_int 2)
          (Ipv4_packet.Raw { proto = 200; data = String.make n 'x' })))

let setup ?(config = Medium.default_config) () =
  let e = Engine.create () in
  let obs = Obs.create () in
  let m = Medium.create e ~rng:(Rng.create ~seed:11) ~obs config in
  (e, m, obs)

let collisions obs = Registry.counter_value (Obs.metrics obs) "medium.collisions"

let test_broadcast_semantics () =
  (* hub: every other station sees the frame, the sender does not *)
  let e, m, _ = setup () in
  let got = Array.make 3 0 in
  let ports =
    Array.init 3 (fun i ->
        Medium.attach m ~deliver:(fun _ -> got.(i) <- got.(i) + 1))
  in
  Medium.transmit m ports.(0) (mk_frame ~src:1 ~dst:2 100);
  Engine.run e;
  Alcotest.(check (array int)) "all but sender" [| 0; 1; 1 |] got

let test_serialization_time () =
  let e, m, _ = setup () in
  let arrival = ref Time.zero in
  let _p0 = Medium.attach m ~deliver:(fun _ -> ()) in
  let _p1 = Medium.attach m ~deliver:(fun _ -> arrival := Engine.now e) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* 1000-byte raw payload: wire = 14 + 20 + 1000 + 4 = 1038; +20
     preamble/IFG = 1058 bytes = 8464 bits @100Mb/s = 84.64 us, +1 us
     propagation *)
  Medium.transmit m p2 (mk_frame ~src:3 ~dst:1 1000);
  Engine.run e;
  Testutil.check_int "arrival time" (Time.ns 85_640) !arrival

let test_delivery_orders_with_timers () =
  (* a delivery is one engine event, scheduled when the frame starts on
     the wire: a timer set for the frame's arrival instant before
     [transmit] fires first, one set after [transmit] fires after it *)
  let e, m, _ = setup () in
  let log = ref [] in
  let note what () = log := (what, Engine.now e) :: !log in
  let _p0 = Medium.attach m ~deliver:(fun _ -> note "frame" ()) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* same 1000-byte frame as above: arrives at 85.64 us *)
  let arrival = Time.ns 85_640 in
  ignore (Engine.schedule_at e ~at:arrival (note "before"));
  Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 1000);
  ignore (Engine.schedule_at e ~at:arrival (note "after"));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "scheduling order at one instant"
    [ ("before", arrival); ("frame", arrival); ("after", arrival) ]
    (List.rev !log)

let test_fifo_when_busy () =
  let e, m, obs = setup () in
  let log = ref [] in
  let p0 =
    Medium.attach m ~deliver:(fun f ->
        log := Macaddr.to_int f.Eth_frame.src :: !log)
  in
  ignore p0;
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* p1 transmits; while busy, p2 queues; no collision since p2 defers *)
  Medium.transmit m p1 (mk_frame ~src:11 ~dst:1 500);
  ignore
    (Engine.schedule e ~delay:(Time.us 5) (fun () ->
         Medium.transmit m p2 (mk_frame ~src:22 ~dst:1 500)));
  Engine.run e;
  Alcotest.(check (list int)) "both delivered in order" [ 11; 22 ]
    (List.rev !log);
  Testutil.check_int "no collisions" 0 (collisions obs)

let test_collision_backoff_resolves () =
  let e, m, obs =
    setup ~config:{ Medium.default_config with collision_prob = 1.0 } ()
  in
  let received = ref 0 in
  let _sink = Medium.attach m ~deliver:(fun _ -> incr received) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p3 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* all three want the wire while it is busy -> contention at idle *)
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 800);
  Medium.transmit m p2 (mk_frame ~src:2 ~dst:9 800);
  Medium.transmit m p3 (mk_frame ~src:3 ~dst:9 800);
  Engine.run e;
  Testutil.check_int "all delivered eventually" 3 !received;
  Testutil.check_bool "collisions occurred" true (collisions obs > 0)

let test_collisions_disabled () =
  let e, m, obs =
    setup ~config:{ Medium.default_config with enable_collisions = false } ()
  in
  let received = ref 0 in
  let _sink = Medium.attach m ~deliver:(fun _ -> incr received) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Medium.transmit m p2 (mk_frame ~src:2 ~dst:9 100);
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Engine.run e;
  Testutil.check_int "all delivered" 3 !received;
  Testutil.check_int "no collisions" 0 (collisions obs)

let test_detach_stops_delivery () =
  let e, m, _ = setup () in
  let got = ref 0 in
  let p0 = Medium.attach m ~deliver:(fun _ -> incr got) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 50);
  Engine.run e;
  Testutil.check_int "first arrives" 1 !got;
  Medium.detach m p0;
  Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 50);
  Engine.run e;
  Testutil.check_int "after detach" 1 !got

let test_random_loss () =
  let e, m, _ =
    setup ~config:{ Medium.default_config with loss_prob = 0.5 } ()
  in
  let got = ref 0 in
  let _p0 = Medium.attach m ~deliver:(fun _ -> incr got) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule e ~delay:(Time.us (i * 200)) (fun () ->
           Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 50)))
  done;
  Engine.run e;
  Testutil.check_bool "some lost" true (!got < n);
  Testutil.check_bool "some arrive" true (!got > n / 4)

let test_nic_promiscuous () =
  let e, m, _ = setup () in
  let normal = ref 0 and promisc = ref 0 in
  let nic1 = Nic.create e ~mac:(Macaddr.of_int 0x111) m in
  let nic2 = Nic.create e ~mac:(Macaddr.of_int 0x222) m in
  let nic3 = Nic.create e ~mac:(Macaddr.of_int 0x333) m in
  Nic.set_rx nic2 (fun _ ~addressed_to_me -> if addressed_to_me then incr normal);
  Nic.set_rx nic3 (fun _ ~addressed_to_me ->
      if not addressed_to_me then incr promisc);
  (* frame to nic2's MAC: nic3 sees nothing until promiscuous *)
  Nic.send nic1 ~dst:(Macaddr.of_int 0x222)
    (mk_frame ~src:0x111 ~dst:0x222 10).Eth_frame.payload;
  Engine.run e;
  Testutil.check_int "unicast received" 1 !normal;
  Testutil.check_int "not snooped yet" 0 !promisc;
  Nic.set_promiscuous nic3 true;
  Nic.send nic1 ~dst:(Macaddr.of_int 0x222)
    (mk_frame ~src:0x111 ~dst:0x222 10).Eth_frame.payload;
  Engine.run e;
  Testutil.check_int "snooped" 1 !promisc

(* A snooping host on a segment with traffic between two other stations:
   [snoop] names the address its interface snoops for (None: promiscuous
   mode off), and the sender puts two frames from IP [src] (default a
   third host) for IP [dst] on the wire to a third MAC.  The host's IP
   layer costs 45 us per frame plus 7 us of jitter. *)
type snoop_run = {
  processed : int; (* engine events, whole run *)
  nic_rx : int;
  hooked : int; (* datagrams the rx hook saw *)
  draws : int; (* jitter draws *)
  arrivals : Time.t list; (* when each frame reached the segment's ports *)
  cpu : Cpu.t;
}

let snoop_run ?(src = Ipaddr.of_string "10.0.0.9") ~snoop ~dst () =
  let e, m, obs = setup () in
  let clock = Testutil.host_clock e in
  let sender = Nic.create e ~mac:(Macaddr.of_int 0x111) m in
  let nic = Nic.create e ~mac:(Macaddr.of_int 0x333) ~obs m in
  let eth =
    Eth_iface.create clock ~nic ~addr:(Ipaddr.of_string "10.0.0.3")
      ~prefix:24 ()
  in
  let draws = ref 0 in
  let ip =
    Ip_layer.create clock ~name:"snooper" ~rx_cost:(Time.us 45)
      ~jitter:(fun () -> incr draws; Time.us 7) ()
  in
  ignore (Ip_layer.add_eth_iface ip eth);
  let hooked = ref 0 in
  Ip_layer.set_rx_hook ip
    (Some (fun pkt ~link_addressed:_ -> incr hooked; Ip_layer.Rx_pass pkt));
  Eth_iface.set_promiscuous eth snoop;
  let arrivals = ref [] in
  ignore (Medium.attach m ~deliver:(fun _ -> arrivals := Engine.now e :: !arrivals));
  for _ = 1 to 2 do
    Nic.send sender ~dst:(Macaddr.of_int 0x222)
      (Eth_frame.Ip
         (Ipv4_packet.make ~src ~dst
            (Ipv4_packet.Raw { proto = 200; data = String.make 10 'x' })))
  done;
  Engine.run e;
  { processed = Engine.processed e;
    nic_rx = Registry.counter_value (Obs.metrics obs) "nic.rx";
    hooked = !hooked; draws = !draws; arrivals = List.rev !arrivals;
    cpu = Ip_layer.cpu ip }

let test_snooped_foreign_frame_costs_only_from_service () =
  let service = Ipaddr.of_string "10.0.0.1"
  and third = Ipaddr.of_string "10.0.0.2" in
  let off = snoop_run ~snoop:None ~dst:third () in
  Testutil.check_int "not captured when not promiscuous" 0 off.nic_rx;
  Testutil.check_int "idle cpu" 0 (Cpu.total_busy off.cpu);
  (* snooping the service address: the NIC's filter refuses frames
     between two third hosts, so they never reach it and cost nothing *)
  let foreign = snoop_run ~snoop:(Some service) ~dst:third () in
  Testutil.check_int "nic takes neither frame" 0 foreign.nic_rx;
  Testutil.check_int "no jitter draw" 0 foreign.draws;
  Testutil.check_int "no hook sees them" 0 foreign.hooked;
  Testutil.check_int "no events beyond the medium's" off.processed
    foreign.processed;
  Testutil.check_int "idle cpu when snooping" 0 (Cpu.total_busy foreign.cpu);
  (* the same frames sent from the snooped address (the service's own
     outbound traffic) pass the filter and cost receive time, queued FIFO
     as any other work, but schedule no event and reach no hook *)
  let outbound = snoop_run ~src:service ~snoop:(Some service) ~dst:third () in
  Testutil.check_int "nic counts both outbound" 2 outbound.nic_rx;
  Testutil.check_int "one jitter draw per frame" 2 outbound.draws;
  Testutil.check_int "no hook sees outbound" 0 outbound.hooked;
  Testutil.check_int "no events for outbound" off.processed
    outbound.processed;
  Testutil.check_int "total busy" (Time.us 104) (Cpu.total_busy outbound.cpu);
  let first = List.hd outbound.arrivals in
  Testutil.check_bool "second frame queues behind the first" true
    (List.nth outbound.arrivals 1 < first + Time.us 52);
  Testutil.check_int "busy until" (first + Time.us 104)
    (Cpu.busy_until outbound.cpu);
  (* the same frames addressed to the snooped address are processed: one
     event each, and the hook sees them *)
  let snooped = snoop_run ~snoop:(Some service) ~dst:service () in
  Testutil.check_int "hook sees both" 2 snooped.hooked;
  Testutil.check_int "one event per frame" (off.processed + 2)
    snooped.processed;
  Testutil.check_int "same cpu charge" (Cpu.busy_until outbound.cpu)
    (Cpu.busy_until snooped.cpu)

(* ------------------------ events per frame ------------------------ *)

(* The end of a frame is an engine event only when a station waits for
   the wire or the sender has more queued. *)
let test_events_per_frame () =
  let e, m, _ = setup () in
  let _sink = Medium.attach m ~deliver:ignore in
  let p1 = Medium.attach m ~deliver:ignore in
  let p2 = Medium.attach m ~deliver:ignore in
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Engine.run e;
  Testutil.check_int "uncontended frame: its delivery alone" 1
    (Engine.processed e);
  (* two frames queued on one port: the first one's end starts the
     second *)
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Engine.run e;
  Testutil.check_int "backlog: two deliveries and one end" 4
    (Engine.processed e);
  (* a station that defers arms the end of the frame it waits for *)
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 500);
  ignore
    (Engine.schedule e ~delay:(Time.us 5) (fun () ->
         Medium.transmit m p2 (mk_frame ~src:2 ~dst:9 500)));
  Engine.run e;
  Testutil.check_int "deferral: timer, two deliveries, one end" 8
    (Engine.processed e)

(* At the instant a frame ends, the events that fire before its
   (reserved) end event still find the wire busy, and those after it
   find it idle.  With [collision_prob = 1], two stations that defer
   collide when the wire goes idle, and two that find it idle do not:
   the first starts and the second defers behind it. *)
let test_busy_at_the_end_instant () =
  let collisions_with ~before =
    let e, m, obs =
      setup ~config:{ Medium.default_config with collision_prob = 1.0 } ()
    in
    let _sink = Medium.attach m ~deliver:ignore in
    let p1 = Medium.attach m ~deliver:ignore in
    let p2 = Medium.attach m ~deliver:ignore in
    let p3 = Medium.attach m ~deliver:ignore in
    (* 100-byte raw payload: 14 + 20 + 100 + 4 + 20 bytes = 12.64 us *)
    let ends = Time.ns 12_640 in
    let both () =
      Medium.transmit m p2 (mk_frame ~src:2 ~dst:9 100);
      Medium.transmit m p3 (mk_frame ~src:3 ~dst:9 100)
    in
    if before then ignore (Engine.schedule_at e ~at:ends both);
    Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
    if not before then ignore (Engine.schedule_at e ~at:ends both);
    Engine.run e;
    collisions obs
  in
  Testutil.check_bool "scheduled before the frame: busy, both defer" true
    (collisions_with ~before:true > 0);
  Testutil.check_int "scheduled after the frame: idle" 0
    (collisions_with ~before:false)

(* ------------------ station table vs the NIC rule ------------------ *)

(* What a station does with a frame, restated from the NIC and the
   interface filter the station table replaces: a NIC accepted a frame
   for its MAC or broadcast, or any frame while promiscuous, unless
   partitioned; a snooping interface then kept ARP, addressed frames and
   IPv4 datagrams from or to the snooped address or to one of its own. *)
type promisc = Off | Wild | Host of int

type model = {
  idx : int; (* index among the scenario's ports, in attach order *)
  tap : bool;
  mac : int;
  mutable promisc : promisc;
  mutable addrs : int list;
  mutable partitioned : bool;
  mutable attached : bool;
}

let reference_takes st (frame : Eth_frame.t) =
  let dst = Macaddr.to_int frame.dst in
  let to_me = dst = st.mac || Macaddr.is_broadcast frame.dst in
  if st.tap then Some false
  else if st.partitioned || not (to_me || st.promisc <> Off) then None
  else
    let kept =
      match (frame.payload, st.promisc) with
      | Eth_frame.Arp _, _ | _, (Off | Wild) -> true
      | Eth_frame.Ip p, Host a ->
        let src = Ipaddr.to_int p.src and pdst = Ipaddr.to_int p.dst in
        to_me || src = a || pdst = a || List.exists (Int.equal pdst) st.addrs
    in
    if kept then Some to_me else None

(* Random station sets and frames on one segment.  MACs come from a
   pool of ten (so two ports may share one, and the table may grow) and
   addresses from another
   (so snooped, own and third addresses collide often).  Between frames
   a station may gain an alias, change its promiscuity, be partitioned
   or healed, or be detached and attached again as a new port with the
   same MAC.  Every frame's receivers and their order must be the
   reference's. *)
let prop_station_table =
  QCheck.Test.make ~name:"station table hands frames as the NIC rule"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int r (List.length l)) in
      let e, m, _ =
        setup
          ~config:{ Medium.default_config with enable_collisions = false } ()
      in
      let macs = List.init 10 succ and addrs = [ 10; 11; 12; 13; 14 ] in
      let calls = ref [] and taken = ref [] in
      let ports = ref [] in (* (model, nic option, rx obs), attach order *)
      let add_station mac =
        let st =
          { idx = List.length !ports; tap = false; mac; promisc = Off;
            addrs = []; partitioned = false; attached = true }
        in
        let obs = Obs.create () in
        let nic = Nic.create e ~mac:(Macaddr.of_int mac) ~obs m in
        Nic.set_rx nic (fun _ ~addressed_to_me ->
            calls := (st.idx, addressed_to_me) :: !calls);
        ports := !ports @ [ (st, Some nic, obs) ];
        (st, nic)
      in
      let add_address st nic a =
        Nic.add_address nic (Ipaddr.of_int a);
        if not (List.mem a st.addrs) then st.addrs <- st.addrs @ [ a ]
      in
      let set_promisc st nic p =
        st.promisc <- p;
        match p with
        | Off -> Nic.set_promiscuous nic false
        | Wild -> Nic.set_promiscuous nic true
        | Host a -> Nic.set_promiscuous nic ~host:(Ipaddr.of_int a) true
      in
      let random_promisc () =
        match Random.State.int r 3 with
        | 0 -> Off
        | 1 -> Wild
        | _ -> Host (pick addrs)
      in
      let tap_at = Random.State.int r 6 in
      for i = 0 to 2 + Random.State.int r 9 do
        if i = tap_at then begin
          let st =
            { idx = List.length !ports; tap = true; mac = -1; promisc = Off;
              addrs = []; partitioned = false; attached = true }
          in
          ignore
            (Medium.attach m ~deliver:(fun _ ->
                 calls := (st.idx, false) :: !calls));
          ports := !ports @ [ (st, None, Obs.create ()) ]
        end;
        let st, nic = add_station (pick macs) in
        if Random.State.bool r then add_address st nic (pick addrs);
        set_promisc st nic (random_promisc ())
      done;
      let stations () =
        List.filter_map
          (fun (st, nic, _) ->
            match nic with
            | Some n when st.attached -> Some (st, n)
            | _ -> None)
          !ports
      in
      let mutate () =
        let st, nic = pick (stations ()) in
        match Random.State.int r 5 with
        | 0 -> add_address st nic (pick addrs)
        | 1 -> set_promisc st nic (random_promisc ())
        | 2 ->
          st.partitioned <- not st.partitioned;
          Nic.set_partitioned nic st.partitioned
        | 3 when List.length (stations ()) > 2 ->
          (* detached, and attached again as a new port *)
          Nic.shutdown nic;
          st.attached <- false;
          let st', nic' = add_station st.mac in
          List.iter (add_address st' nic') st.addrs;
          set_promisc st' nic' st.promisc
        | _ -> ()
      in
      let ok = ref true in
      for _ = 1 to 40 do
        if Random.State.int r 3 = 0 then mutate ();
        let senders =
          List.filter (fun (st, _) -> not st.partitioned) (stations ())
        in
        if senders <> [] then begin
          let sender, nic = pick senders in
          let dst =
            match Random.State.int r 4 with
            | 0 -> Macaddr.broadcast
            | 1 -> Macaddr.of_int 99
            | _ -> Macaddr.of_int (pick macs)
          in
          let ip () = Ipaddr.of_int (pick (20 :: addrs)) in
          let payload =
            if Random.State.int r 4 = 0 then
              Eth_frame.Arp
                (Arp_packet.reply ~sender_mac:(Macaddr.of_int sender.mac)
                   ~sender_ip:(ip ()) ~target_mac:dst ~target_ip:(ip ()))
            else
              Eth_frame.Ip
                (Ipv4_packet.make ~src:(ip ()) ~dst:(ip ())
                   (Ipv4_packet.Raw { proto = 200; data = "x" }))
          in
          let frame =
            Eth_frame.make ~src:(Macaddr.of_int sender.mac) ~dst payload
          in
          (* the reference is taken when the frame lands, as the table is *)
          calls := [];
          Nic.send nic ~dst payload;
          Engine.run e;
          let expected =
            List.filter_map
              (fun (st, _, _) ->
                if (not st.attached) || st.idx = sender.idx then None
                else
                  Option.map (fun a -> (st.idx, a)) (reference_takes st frame))
              !ports
          in
          if List.rev !calls <> expected then ok := false;
          taken := !calls @ !taken
        end
      done;
      (* nic.rx counts exactly the frames handed to the station *)
      let rx_matches =
        List.for_all
          (fun (st, nic, obs) ->
            Option.is_none nic
            || Registry.counter_value (Obs.metrics obs) "nic.rx"
               = List.length (List.filter (fun (i, _) -> i = st.idx) !taken))
          !ports
      in
      !ok && rx_matches)

let suite =
  [
    Alcotest.test_case "hub broadcast semantics" `Quick
      test_broadcast_semantics;
    Alcotest.test_case "serialization + propagation timing" `Quick
      test_serialization_time;
    Alcotest.test_case "delivery vs timers at the arrival instant" `Quick
      test_delivery_orders_with_timers;
    Alcotest.test_case "busy medium: FIFO, no collision" `Quick
      test_fifo_when_busy;
    Alcotest.test_case "collision backoff resolves" `Quick
      test_collision_backoff_resolves;
    Alcotest.test_case "collisions disabled" `Quick test_collisions_disabled;
    Alcotest.test_case "detach stops delivery" `Quick
      test_detach_stops_delivery;
    Alcotest.test_case "random loss" `Quick test_random_loss;
    Alcotest.test_case "nic promiscuous mode" `Quick test_nic_promiscuous;
    Alcotest.test_case "snooped frame for a third host: cpu only from the service"
      `Quick test_snooped_foreign_frame_costs_only_from_service;
    Alcotest.test_case "events per frame" `Quick test_events_per_frame;
    Alcotest.test_case "busy at the instant a frame ends" `Quick
      test_busy_at_the_end_instant;
    QCheck_alcotest.to_alcotest prop_station_table;
  ]
