module Time = Tcpfo_sim.Time
module Ipaddr = Tcpfo_packet.Ipaddr
module Medium = Tcpfo_net.Medium
module Link = Tcpfo_net.Link
module Nic = Tcpfo_net.Nic
module Eth_iface = Tcpfo_ip.Eth_iface

type host = {
  h_name : string;
  h_addr : string;
  h_segment : string;
  h_gateway : string option;
  h_profile : Host.profile option;
  h_tcp : Tcpfo_tcp.Tcp_config.t option;
}

type router = {
  r_name : string;
  r_segment : string;
  r_lan_addr : string;
  r_link : string;
  r_wan_addr : string;
}

type wan_host = {
  w_name : string;
  w_addr : string;
  w_link : string;
  w_profile : Host.profile option;
  w_tcp : Tcpfo_tcp.Tcp_config.t option;
}

type service = { sv_name : string; sv_segment : string; sv_addr : string }

type dispatch = {
  d_name : string;
  d_service : string;
  d_back : string;
  d_shards : string list;
  d_profile : Host.profile option;
}

type decl =
  | Segment of string * Medium.config option
  | Link of string * Link.config
  | Host of host
  | Router of router
  | Wan_host of wan_host
  | Group of string * string list
  | Service of service
  | Dispatch of dispatch

type spec = decl list

(* ------------------------------------------------------------------ *)
(* constructors                                                        *)

let segment ?config name = Segment (name, config)
let link ?(config = Link.default_config) name = Link (name, config)

let host ?gateway ?profile ?tcp_config ~addr ~seg name =
  Host
    {
      h_name = name;
      h_addr = addr;
      h_segment = seg;
      h_gateway = gateway;
      h_profile = profile;
      h_tcp = tcp_config;
    }

let router ~seg ~lan_addr ~link ~wan_addr name =
  Router
    {
      r_name = name;
      r_segment = seg;
      r_lan_addr = lan_addr;
      r_link = link;
      r_wan_addr = wan_addr;
    }

let wan_host ?profile ?tcp_config ~addr ~link name =
  Wan_host
    {
      w_name = name;
      w_addr = addr;
      w_link = link;
      w_profile = profile;
      w_tcp = tcp_config;
    }

let group ~members name = Group (name, members)

let service ~seg ~addr name =
  Service { sv_name = name; sv_segment = seg; sv_addr = addr }

let dispatch ?profile ~service ~back ~shards name =
  Dispatch
    {
      d_name = name;
      d_service = service;
      d_back = back;
      d_shards = shards;
      d_profile = profile;
    }

(* Switch-class packet costs: a dispatcher forwards every fleet packet
   twice (rx + tx), so it must be far cheaper per packet than a paper
   end host or it becomes the bottleneck the tier exists to remove. *)
let dispatch_profile =
  { Host.tx_cost = Time.us 4; rx_cost = Time.us 6; jitter_frac = 0.0;
    hiccup_prob = 0.0 }

(* ------------------------------------------------------------------ *)
(* validation                                                          *)

let is_addr s =
  match Ipaddr.of_string s with
  | (_ : Ipaddr.t) -> true
  | exception _ -> false

let validate (spec : spec) : (unit, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  (* accumulated declaration environments, in order *)
  let segs = Hashtbl.create 8 in
  (* host namespace: name -> `Lan of segment | `Router | `Wan | `Dispatch *)
  let hosts = Hashtbl.create 16 in
  (* group name -> its (single) segment *)
  let groups = Hashtbl.create 4 in
  (* service name -> (segment, addr); used_services: service -> dispatcher *)
  let services = Hashtbl.create 4 in
  let used_services = Hashtbl.create 4 in
  (* per-segment claimed IPs: (segment, addr) *)
  let seg_addrs = Hashtbl.create 16 in
  (* link name -> (has_router, has_wan_host, wan addrs) *)
  let links : (string, bool ref * bool ref * string list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let claim_addr seg addr who =
    match Hashtbl.find_opt seg_addrs (seg, addr) with
    | Some other ->
      err "duplicate IP %s on segment %S (hosts %S and %S)" addr seg other who
    | None ->
      Hashtbl.add seg_addrs (seg, addr) who;
      Ok ()
  in
  let check_addr who addr =
    if is_addr addr then Ok () else err "host %S: bad address %S" who addr
  in
  let rec go = function
    | [] ->
      (* dangling link endpoints *)
      Hashtbl.fold
        (fun name (r, w, _) acc ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            if not !r then
              err "link %S has no router on its LAN side (dangling endpoint)"
                name
            else if not !w then
              err "link %S has no WAN host (dangling endpoint)" name
            else Ok ())
        links (Ok ())
    | d :: rest -> (
      let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
      let continue () = go rest in
      match d with
      | Segment (name, _) ->
        if Hashtbl.mem segs name then err "duplicate segment %S" name
        else begin
          Hashtbl.add segs name ();
          continue ()
        end
      | Link (name, _) ->
        if Hashtbl.mem links name then err "duplicate link %S" name
        else begin
          Hashtbl.add links name (ref false, ref false, ref []);
          continue ()
        end
      | Host h ->
        if Hashtbl.mem hosts h.h_name then
          err "duplicate host name %S" h.h_name
        else if not (Hashtbl.mem segs h.h_segment) then
          err "host %S: unknown segment %S (segments must be declared first)"
            h.h_name h.h_segment
        else
          let* () = check_addr h.h_name h.h_addr in
          let* () =
            match h.h_gateway with
            | Some g when not (is_addr g) ->
              err "host %S: bad gateway %S" h.h_name g
            | _ -> Ok ()
          in
          let* () = claim_addr h.h_segment h.h_addr h.h_name in
          Hashtbl.add hosts h.h_name (`Lan h.h_segment);
          continue ()
      | Router r -> (
        if Hashtbl.mem hosts r.r_name then
          err "duplicate host name %S" r.r_name
        else if not (Hashtbl.mem segs r.r_segment) then
          err "router %S: unknown segment %S" r.r_name r.r_segment
        else
          let* () = check_addr r.r_name r.r_lan_addr in
          let* () = check_addr r.r_name r.r_wan_addr in
          match Hashtbl.find_opt links r.r_link with
          | None -> err "router %S: unknown link %S" r.r_name r.r_link
          | Some (has_r, _, addrs) ->
            if !has_r then
              err "link %S claimed by two routers (%S is the second)"
                r.r_link r.r_name
            else
              let* () = claim_addr r.r_segment r.r_lan_addr r.r_name in
              has_r := true;
              addrs := r.r_wan_addr :: !addrs;
              Hashtbl.add hosts r.r_name `Router;
              continue ())
      | Wan_host w -> (
        if Hashtbl.mem hosts w.w_name then
          err "duplicate host name %S" w.w_name
        else
          let* () = check_addr w.w_name w.w_addr in
          match Hashtbl.find_opt links w.w_link with
          | None -> err "wan host %S: unknown link %S" w.w_name w.w_link
          | Some (_, has_w, addrs) ->
            if !has_w then
              err "link %S claimed by two WAN hosts (%S is the second)"
                w.w_link w.w_name
            else if List.mem w.w_addr !addrs then
              err "duplicate address %s on link %S" w.w_addr w.w_link
            else begin
              has_w := true;
              addrs := w.w_addr :: !addrs;
              Hashtbl.add hosts w.w_name `Wan;
              continue ()
            end)
      | Group (name, members) -> (
        if Hashtbl.mem groups name then err "duplicate group %S" name
        else if List.length members < 2 then
          err "group %S needs at least two members (a replica pair)" name
        else
          let segs_of =
            List.map
              (fun m ->
                match Hashtbl.find_opt hosts m with
                | Some (`Lan s) -> Ok (m, s)
                | Some (`Router | `Wan | `Dispatch) ->
                  err "group %S: member %S is not a LAN host" name m
                | None -> err "group %S: unknown member %S" name m)
              members
          in
          match
            List.fold_left
              (fun acc r ->
                match (acc, r) with
                | (Error _ as e), _ -> e
                | _, (Error _ as e) -> e
                | Ok acc, Ok x -> Ok (x :: acc))
              (Ok []) segs_of
          with
          | Error e -> Error e
          | Ok pairs -> (
            let dup =
              let seen = Hashtbl.create 4 in
              List.find_opt
                (fun (m, _) ->
                  if Hashtbl.mem seen m then true
                  else begin
                    Hashtbl.add seen m ();
                    false
                  end)
                pairs
            in
            match dup with
            | Some (m, _) -> err "group %S lists member %S twice" name m
            | None -> (
              match pairs with
              | [] -> assert false
              | (_, s0) :: _ -> (
                match List.find_opt (fun (_, s) -> s <> s0) pairs with
                | Some (m, s) ->
                  err
                    "group %S spans segments %S and %S (member %S) — the \
                     snooping model needs one wire"
                    name s0 s m
                | None ->
                  Hashtbl.add groups name s0;
                  continue ()))))
      | Service s ->
        if Hashtbl.mem services s.sv_name then
          err "duplicate service %S" s.sv_name
        else if not (Hashtbl.mem segs s.sv_segment) then
          err "service %S: unknown segment %S" s.sv_name s.sv_segment
        else if not (is_addr s.sv_addr) then
          err "service %S: bad address %S" s.sv_name s.sv_addr
        else
          let* () = claim_addr s.sv_segment s.sv_addr s.sv_name in
          Hashtbl.add services s.sv_name (s.sv_segment, s.sv_addr);
          continue ()
      | Dispatch d -> (
        if Hashtbl.mem hosts d.d_name then
          err "duplicate host name %S" d.d_name
        else if d.d_shards = [] then
          err "dispatch %S needs at least one shard group" d.d_name
        else
          match Hashtbl.find_opt services d.d_service with
          | None -> err "dispatch %S: unknown service %S" d.d_name d.d_service
          | Some (front_seg, _) -> (
            match Hashtbl.find_opt used_services d.d_service with
            | Some other ->
              err "service %S claimed by two dispatchers (%S and %S)"
                d.d_service other d.d_name
            | None -> (
              let shard_segs =
                List.map
                  (fun g ->
                    match Hashtbl.find_opt groups g with
                    | Some s -> Ok (g, s)
                    | None ->
                      err "dispatch %S: unknown shard group %S" d.d_name g)
                  d.d_shards
              in
              match
                List.fold_left
                  (fun acc r ->
                    match (acc, r) with
                    | (Error _ as e), _ -> e
                    | _, (Error _ as e) -> e
                    | Ok acc, Ok x -> Ok (x :: acc))
                  (Ok []) shard_segs
              with
              | Error e -> Error e
              | Ok pairs -> (
                let dup =
                  let seen = Hashtbl.create 4 in
                  List.find_opt
                    (fun (g, _) ->
                      if Hashtbl.mem seen g then true
                      else begin
                        Hashtbl.add seen g ();
                        false
                      end)
                    pairs
                in
                match dup with
                | Some (g, _) -> err "dispatch %S lists shard %S twice" d.d_name g
                | None -> (
                  match pairs with
                  | [] -> assert false
                  | (_, s0) :: _ -> (
                    match List.find_opt (fun (_, s) -> s <> s0) pairs with
                    | Some (g, s) ->
                      err
                        "dispatch %S: shard groups span segments %S and %S \
                         (shard %S) — the fleet needs one back wire"
                        d.d_name s0 s g
                    | None ->
                      if s0 = front_seg then
                        err
                          "dispatch %S: shards share the front segment %S — \
                           the dispatcher needs distinct front and back wires"
                          d.d_name front_seg
                      else if not (is_addr d.d_back) then
                        err "dispatch %S: bad back address %S" d.d_name d.d_back
                      else
                        let* () = claim_addr s0 d.d_back d.d_name in
                        Hashtbl.add used_services d.d_service d.d_name;
                        Hashtbl.add hosts d.d_name `Dispatch;
                        continue ())))))))
  in
  go spec

(* ------------------------------------------------------------------ *)
(* elaboration                                                         *)

type built_host = {
  bh_name : string;
  bh_where : string; (* segment or link name *)
  bh_host : Host.t;
}

type dispatch_info = {
  di_host : Host.t;
  di_service : Ipaddr.t;
  di_back : Ipaddr.t;
  di_shards : string list;
}

type built_dispatch = {
  bd_info : dispatch_info;
  bd_back_seg : string;
  bd_back_iface : Eth_iface.t;
}

type built = {
  b_segments : (string * Medium.t) list; (* decl order *)
  b_links : (string * Link.t) list;
  b_hosts : built_host list; (* decl order, all kinds *)
  b_groups : (string * string list) list;
  b_dispatches : (string * built_dispatch) list;
  (* LAN membership per segment (hosts + routers), for warm_arp *)
  b_members : (string * Host.t list) list;
}

(* A dispatcher's back interface is invisible to World.warm_arp, which
   only looks at a host's first interface, so bind it to back-segment
   hosts by hand: each host learns the dispatcher's back address, and
   the dispatcher learns theirs.  Dead hosts are skipped. *)
let bind_back bd hosts =
  let back_mac = Nic.mac (Eth_iface.nic bd.bd_back_iface) in
  List.iter
    (fun h ->
      match (Host.eth h, Host.addr h) with
      | eth, addr ->
        Host.learn_arp h bd.bd_info.di_back back_mac;
        Host.learn_arp bd.bd_info.di_host addr (Nic.mac (Eth_iface.nic eth))
      | exception Invalid_argument _ -> ())
    hosts

let build world (spec : spec) : built =
  (match validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Topo.build: " ^ e));
  let segments = ref [] and links = ref [] in
  let hosts = ref [] and groups = ref [] in
  let services = ref [] and dispatches = ref [] in
  let members : (string, Host.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let seg_order = ref [] in
  List.iter
    (function
      | Segment (name, config) ->
        let m = World.make_lan world ?config () in
        segments := (name, m) :: !segments;
        seg_order := name :: !seg_order;
        Hashtbl.add members name (ref [])
      | Link (name, config) ->
        let l =
          Link.create (World.engine world)
            ~rng:(World.fresh_rng world)
            config
        in
        links := (name, l) :: !links
      | Host h ->
        let m = List.assoc h.h_segment !segments in
        let host =
          World.add_host world m ~name:h.h_name ~addr:h.h_addr
            ?profile:h.h_profile ?tcp_config:h.h_tcp ()
        in
        (match h.h_gateway with
        | Some g ->
          Host.set_default_via_lan host ~gateway:(Ipaddr.of_string g)
        | None -> ());
        hosts :=
          { bh_name = h.h_name; bh_where = h.h_segment; bh_host = host }
          :: !hosts;
        let ms = Hashtbl.find members h.h_segment in
        ms := host :: !ms
      | Router r ->
        let m = List.assoc r.r_segment !segments in
        let l = List.assoc r.r_link !links in
        let host =
          World.add_router world m ~lan_addr:r.r_lan_addr ~wan_link:l
            ~wan_addr:r.r_wan_addr ()
        in
        hosts :=
          { bh_name = r.r_name; bh_where = r.r_segment; bh_host = host }
          :: !hosts;
        let ms = Hashtbl.find members r.r_segment in
        ms := host :: !ms
      | Wan_host w ->
        let l = List.assoc w.w_link !links in
        let host =
          World.add_wan_client world ~wan_link:l ~addr:w.w_addr
            ?profile:w.w_profile ?tcp_config:w.w_tcp ()
        in
        hosts :=
          { bh_name = w.w_name; bh_where = w.w_link; bh_host = host }
          :: !hosts
      | Group (name, ms) -> groups := (name, ms) :: !groups
      | Service s -> services := (s.sv_name, s) :: !services
      | Dispatch d ->
        let s = List.assoc d.d_service !services in
        let front_m = List.assoc s.sv_segment !segments in
        (* validation pinned every shard group to one back segment: read
           it off the first member of the first shard *)
        let back_seg =
          let m0 = List.hd (List.assoc (List.hd d.d_shards) !groups) in
          (List.find (fun bh -> bh.bh_name = m0) !hosts).bh_where
        in
        let back_m = List.assoc back_seg !segments in
        let profile = Option.value d.d_profile ~default:dispatch_profile in
        let host =
          World.add_host world front_m ~name:d.d_name ~addr:s.sv_addr
            ~profile ()
        in
        let back_iface =
          World.attach_extra_lan world host back_m ~addr:d.d_back
        in
        Host.set_forwarding host true;
        hosts :=
          { bh_name = d.d_name; bh_where = s.sv_segment; bh_host = host }
          :: !hosts;
        let ms = Hashtbl.find members s.sv_segment in
        ms := host :: !ms;
        dispatches :=
          ( d.d_name,
            {
              bd_info =
                {
                  di_host = host;
                  di_service = Ipaddr.of_string s.sv_addr;
                  di_back = Ipaddr.of_string d.d_back;
                  di_shards = d.d_shards;
                };
              bd_back_seg = back_seg;
              bd_back_iface = back_iface;
            } )
          :: !dispatches)
    spec;
  let b_members =
    List.rev_map
      (fun seg -> (seg, List.rev !(Hashtbl.find members seg)))
      !seg_order
  in
  (* warm every segment's ARP caches over its own stations only: WAN
     hosts are behind the router, and cross-segment bindings would be
     wrong anyway *)
  List.iter (fun (_, hs) -> World.warm_arp hs) b_members;
  (* a dispatcher's front interface was warmed with its segment above *)
  List.iter
    (fun (_, bd) ->
      bind_back bd
        (Option.value ~default:[] (List.assoc_opt bd.bd_back_seg b_members)))
    !dispatches;
  {
    b_segments = List.rev !segments;
    b_links = List.rev !links;
    b_hosts = List.rev !hosts;
    b_groups = List.rev !groups;
    b_dispatches = List.rev !dispatches;
    b_members;
  }

let host_of b name =
  match List.find_opt (fun bh -> bh.bh_name = name) b.b_hosts with
  | Some bh -> bh.bh_host
  | None -> invalid_arg (Printf.sprintf "Topo.host_of: no host %S" name)

let lookup what l name =
  match List.assoc_opt name l with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Topo.%s_of: no %s %S" what what name)

let segment_of b name = lookup "segment" b.b_segments name
let link_of b name = lookup "link" b.b_links name

let group_of b name =
  let members = lookup "group" b.b_groups name in
  List.map (host_of b) members

let hosts b = List.map (fun bh -> bh.bh_host) b.b_hosts

let dispatch_of b name =
  match List.assoc_opt name b.b_dispatches with
  | Some bd -> bd.bd_info
  | None -> invalid_arg (Printf.sprintf "Topo.dispatch_of: no dispatch %S" name)

let warm_dispatch_arp b name extra =
  match List.assoc_opt name b.b_dispatches with
  | None -> invalid_arg (Printf.sprintf "Topo.warm_dispatch_arp: no dispatch %S" name)
  | Some bd -> bind_back bd extra
