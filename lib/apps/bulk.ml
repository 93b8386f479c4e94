module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb

(* Deterministic stream content so receivers can verify integrity. *)
let stream_byte i = Char.chr ((i * 31 + (i lsr 8) * 17 + 5) land 0xFF)

let stream_chunk ~pos n = String.init n (fun i -> stream_byte (pos + i))

(* Write [size] bytes into [tcb] at most [chunk] per send, respecting
   backpressure: [piece ~pos n] yields the [n] bytes at offset [pos],
   and [on_done] fires when the last byte enters the send buffer. *)
let write ~chunk ~size ~piece ~on_done tcb =
  let pos = ref 0 in
  let rec go () =
    if !pos < size then begin
      let want = Int.min chunk (size - !pos) in
      let n = Tcb.send tcb (piece ~pos:!pos want) in
      pos := !pos + n;
      if n < want then
        (* buffer full: resume when acknowledgments free space *)
        Tcb.set_on_drain tcb go
      else go ()
    end
    else on_done ()
  in
  go ()

(* Pump [size] bytes of the deterministic stream into [tcb];
   [on_buffered] fires when the last byte enters the send buffer,
   [then_close] closes afterwards. *)
let pump ?(chunk = 32768) ~size ~on_buffered ~then_close tcb =
  write ~chunk ~size ~piece:stream_chunk tcb ~on_done:(fun () ->
      on_buffered ();
      if then_close then Tcb.close tcb)

let send_and_close tcb payload =
  write ~chunk:32768 ~size:(String.length payload)
    ~piece:(fun ~pos n -> String.sub payload pos n)
    ~on_done:(fun () -> Tcb.close tcb)
    tcb

module Sink = struct
  let handle ?on_complete tcb =
    let count = ref 0 in
    Tcb.set_on_data tcb (fun d -> count := !count + String.length d);
    Tcb.set_on_eof tcb (fun () ->
        (match on_complete with
        | Some f -> f ~bytes_received:!count
        | None -> ());
        Tcb.close tcb)

  let serve stack ~port ?on_complete () =
    Stack.listen stack ~port ~on_accept:(fun tcb -> handle ?on_complete tcb)
end

module Source = struct
  let handle ~size tcb =
    Tcb.set_on_established tcb (fun () ->
        pump ~size ~on_buffered:(fun () -> ()) ~then_close:true tcb);
    Tcb.set_on_eof tcb (fun () -> ())

  let serve stack ~port ~size =
    Stack.listen stack ~port ~on_accept:(handle ~size)
end

module Rr = struct
  let handle ~reply_size tcb =
    let got = ref 0 in
    Tcb.set_on_data tcb (fun d ->
        got := !got + String.length d;
        if !got >= 4 then begin
          got := 0;
          pump ~size:reply_size ~on_buffered:(fun () -> ()) ~then_close:false
            tcb
        end);
    Tcb.set_on_eof tcb (fun () -> Tcb.close tcb)

  let serve stack ~port ~reply_size =
    Stack.listen stack ~port ~on_accept:(handle ~reply_size)
end

let upload stack ~remote ~size ?chunk ~on_buffered ~on_complete () =
  let tcb = Stack.connect stack ~remote () in
  Tcb.set_on_established tcb (fun () ->
      pump ?chunk ~size ~on_buffered ~then_close:true tcb);
  Tcb.set_on_close tcb on_complete;
  Tcb.set_on_eof tcb (fun () -> ());
  tcb

let download stack ~remote ~on_complete () =
  let tcb = Stack.connect stack ~remote () in
  let count = ref 0 in
  let ok = ref true in
  Tcb.set_on_data tcb (fun d ->
      String.iteri
        (fun i c -> if c <> stream_byte (!count + i) then ok := false)
        d;
      count := !count + String.length d);
  Tcb.set_on_eof tcb (fun () ->
      Tcb.close tcb;
      on_complete ~bytes_received:!count ~ok:!ok);
  tcb
