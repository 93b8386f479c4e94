module Ipaddr = Tcpfo_packet.Ipaddr
module Tcp_segment = Tcpfo_packet.Tcp_segment
module Time = Tcpfo_sim.Time

type failover_phase =
  | Detected
  | Takeover_started
  | Takeover_complete
  | Degraded
  | Reintegrated

type transfer_phase =
  | Started of { offers : int; isolated : int }
  | Settled of { moved : int; isolated : int }

type t =
  | Segment_tx of { host : string; dst : Ipaddr.t; seg : Tcp_segment.t }
  | Segment_rx of { host : string; src : Ipaddr.t; seg : Tcp_segment.t }
  | Segment_drop of { host : string; reason : string; seg : Tcp_segment.t }
  | Divert of { host : string; orig_dst : Ipaddr.t; seg : Tcp_segment.t }
  | Merge of { host : string; port : int; bytes : int }
  | Hold of { host : string; bytes : int }
  | Failover of { host : string; phase : failover_phase }
  | Arp_takeover of { host : string; ip : Ipaddr.t }
  | Promoted of { host : string }
  | Hot_transfer of { host : string; dst : Ipaddr.t; phase : transfer_phase }
  | Weight_shift of { shard : string; weight : int; reason : string }

let phase_to_string = function
  | Detected -> "detected"
  | Takeover_started -> "takeover-started"
  | Takeover_complete -> "takeover-complete"
  | Degraded -> "degraded"
  | Reintegrated -> "reintegrated"

let pp fmt = function
  | Segment_tx { host; dst; seg } ->
    Format.fprintf fmt "%s tx -> %a %a" host Ipaddr.pp dst Tcp_segment.pp seg
  | Segment_rx { host; src; seg } ->
    Format.fprintf fmt "%s rx <- %a %a" host Ipaddr.pp src Tcp_segment.pp seg
  | Segment_drop { host; reason; seg } ->
    Format.fprintf fmt "%s drop (%s) %a" host reason Tcp_segment.pp seg
  | Divert { host; orig_dst; seg } ->
    Format.fprintf fmt "%s divert orig-dst=%a %a" host Ipaddr.pp orig_dst
      Tcp_segment.pp seg
  | Merge { host; port; bytes } ->
    Format.fprintf fmt "%s merge port=%d bytes=%d" host port bytes
  | Hold { host; bytes } -> Format.fprintf fmt "%s hold bytes=%d" host bytes
  | Failover { host; phase } ->
    Format.fprintf fmt "%s failover %s" host (phase_to_string phase)
  | Arp_takeover { host; ip } ->
    Format.fprintf fmt "%s arp-takeover %a" host Ipaddr.pp ip
  | Promoted { host } -> Format.fprintf fmt "%s promoted from standby" host
  | Hot_transfer { host; dst; phase = Started { offers; isolated } } ->
    Format.fprintf fmt "%s hot-transfer -> %a started offers=%d isolated=%d"
      host Ipaddr.pp dst offers isolated
  | Hot_transfer { host; dst; phase = Settled { moved; isolated } } ->
    Format.fprintf fmt "%s hot-transfer -> %a settled moved=%d isolated=%d"
      host Ipaddr.pp dst moved isolated
  | Weight_shift { shard; weight; reason } ->
    Format.fprintf fmt "dispatch shard=%s weight=%d (%s)" shard weight reason

let is_segment = function
  | Segment_tx _ | Segment_rx _ -> true
  | Segment_drop _ | Divert _ | Merge _ | Hold _ | Failover _
  | Arp_takeover _ | Promoted _ | Hot_transfer _ | Weight_shift _ ->
    false

module Bus = struct
  type event = t
  type sub = { handler : at:Time.t -> event -> unit }
  type t = { mutable subs : sub list (* subscription order *) }

  let create () = { subs = [] }
  let active t = t.subs <> []

  let subscribe t handler =
    let s = { handler } in
    t.subs <- t.subs @ [ s ];
    s

  let emit t ~at ev =
    match t.subs with
    | [] -> ()
    | subs -> List.iter (fun s -> s.handler ~at ev) subs

  let attach_console ?(out = Format.err_formatter) ?(filter = fun _ -> true) t
      =
    subscribe t (fun ~at ev ->
        if filter ev then
          Format.fprintf out "[%a] %a@." Time.pp at pp ev)
end
