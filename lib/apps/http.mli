(** A minimal HTTP/1.0 server and client — the paper's motivating
    workload ("a replicated Web server that accepts connection requests
    from unreplicated clients", §1).

    Supported: [GET] and [POST] with [Content-Length] framing, status
    lines, a handful of headers, connection-per-request ("Connection:
    close") semantics — enough to exercise realistic request/response
    traffic through the failover bridge.  Deterministic: responses are a
    pure function of the request and the handler. *)

type request = {
  meth : string;  (** "GET", "POST", ... *)
  path : string;
  headers : (string * string) list;  (** lowercased names *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val ok : ?headers:(string * string) list -> string -> response
val not_found : response

type handler = request -> response

val serve : Tcpfo_tcp.Stack.t -> port:int -> handler -> unit
(** One request per connection; the server replies and closes (HTTP/1.0
    default). *)

val serve_replicated : Tcpfo_core.Replicated.t -> port:int -> handler -> unit

val get :
  Tcpfo_tcp.Stack.t ->
  server:Tcpfo_packet.Ipaddr.t * int ->
  path:string ->
  on_response:(response option -> unit) ->
  unit ->
  Tcpfo_tcp.Tcb.t
(** Issue a GET; [on_response] receives [None] on connection failure or a
    malformed reply. *)

val post :
  Tcpfo_tcp.Stack.t ->
  server:Tcpfo_packet.Ipaddr.t * int ->
  path:string ->
  body:string ->
  on_response:(response option -> unit) ->
  unit ->
  Tcpfo_tcp.Tcb.t

(** {1 Wire formats, exposed for tests} *)

val render_request : request -> string
val render_response : response -> string
