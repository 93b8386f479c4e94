(** Bulk-transfer workloads: the building blocks of the paper's Figure 3
    (client→server send time), Figure 4 (request/reply time) and Figure 5
    (100 MB stream rates). *)

module Sink : sig
  (** Server that consumes an upload and reports completion. *)

  val serve :
    Tcpfo_tcp.Stack.t ->
    port:int ->
    ?on_complete:(bytes_received:int -> unit) ->
    unit ->
    unit
  (** Accept connections, discard payload, fire [on_complete] when the
      peer half-closes.  The sink closes its side in response. *)
end

module Source : sig
  (** Server that streams [size] bytes at the client upon connection, then
      closes. *)

  val serve : Tcpfo_tcp.Stack.t -> port:int -> size:int -> unit
end

module Rr : sig
  (** Request/reply: the client sends a 4-byte message, the server replies
      with [reply_size] bytes (paper Figure 4). *)

  val serve : Tcpfo_tcp.Stack.t -> port:int -> reply_size:int -> unit
end

val send_and_close : Tcpfo_tcp.Tcb.t -> string -> unit
(** Write the whole payload into the connection, at most 32 KiB per
    send; a short write resumes when the send buffer drains.  Closes
    the connection once the last byte is buffered. *)

(** {1 Client-side drivers} *)

val upload :
  Tcpfo_tcp.Stack.t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  size:int ->
  ?chunk:int ->
  on_buffered:(unit -> unit) ->
  on_complete:(unit -> unit) ->
  unit ->
  Tcpfo_tcp.Tcb.t
(** Connect, stream [size] bytes.  [on_buffered] fires when the last byte
    has been accepted by the send buffer (the instant the paper's send
    call returns, §9); [on_complete] when the upload is fully
    acknowledged and the connection has closed. *)

val download :
  Tcpfo_tcp.Stack.t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  on_complete:(bytes_received:int -> ok:bool -> unit) ->
  unit ->
  Tcpfo_tcp.Tcb.t
(** Connect to a {!Source} and consume until EOF; [ok] reports byte-exact
    content. *)
