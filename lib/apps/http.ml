module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let ok ?(headers = []) body =
  { status = 200; reason = "OK"; resp_headers = headers; resp_body = body }

let not_found =
  { status = 404; reason = "Not Found"; resp_headers = []; resp_body = "" }

type handler = request -> response

(* ------------------------------------------------------------------ *)
(* Wire format                                                        *)

let crlf = "\r\n"

let render_headers headers body =
  let b = Buffer.create 128 in
  List.iter
    (fun (k, v) ->
      if String.lowercase_ascii k <> "content-length" then begin
        Buffer.add_string b k;
        Buffer.add_string b ": ";
        Buffer.add_string b v;
        Buffer.add_string b crlf
      end)
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d%s" (String.length body) crlf);
  Buffer.add_string b crlf;
  Buffer.contents b

let render_request r =
  Printf.sprintf "%s %s HTTP/1.0%s%s%s" r.meth r.path crlf
    (render_headers r.headers r.body)
    r.body

let render_response r =
  Printf.sprintf "HTTP/1.0 %d %s%s%s%s" r.status r.reason crlf
    (render_headers r.resp_headers r.resp_body)
    r.resp_body

(* Incremental message parser: start line, headers, Content-Length body. *)
type 'a parser_state = {
  buf : Buffer.t;
  mutable head_done : bool;
  mutable start_line : string;
  mutable headers : (string * string) list;
  mutable need : int; (* body bytes still required; -1 = unknown *)
  mutable emitted : bool;
  on_message : start_line:string -> headers:(string * string) list ->
    body:string -> unit;
}

let mk_parser on_message =
  { buf = Buffer.create 256; head_done = false; start_line = "";
    headers = []; need = -1; emitted = false; on_message }

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
    let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    Some (name, value)

let feed p chunk =
  Buffer.add_string p.buf chunk;
  let try_finish () =
    if p.head_done && not p.emitted then begin
      let have = Buffer.length p.buf in
      if p.need >= 0 && have >= p.need then begin
        p.emitted <- true;
        let body = Buffer.sub p.buf 0 p.need in
        p.on_message ~start_line:p.start_line ~headers:p.headers ~body
      end
    end
  in
  if not p.head_done then begin
    let s = Buffer.contents p.buf in
    (* find the blank line ending the header block *)
    let rec find i =
      if i + 3 < String.length s then
        if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
           && s.[i + 3] = '\n'
        then Some i
        else find (i + 1)
      else None
    in
    match find 0 with
    | None -> ()
    | Some hdr_end ->
      let head = String.sub s 0 hdr_end in
      let rest =
        String.sub s (hdr_end + 4) (String.length s - hdr_end - 4)
      in
      (match String.split_on_char '\n' (String.concat "" [ head ]) with
      | [] -> ()
      | first :: rest_lines ->
        p.start_line <- String.trim first;
        p.headers <- List.filter_map parse_header_line rest_lines);
      p.need <-
        (match List.assoc_opt "content-length" p.headers with
        | Some v -> ( try int_of_string (String.trim v) with _ -> 0)
        | None -> 0);
      p.head_done <- true;
      Buffer.clear p.buf;
      Buffer.add_string p.buf rest;
      try_finish ()
  end
  else try_finish ()

(* ------------------------------------------------------------------ *)
(* Server                                                             *)

let handle_connection handler tcb =
  let respond ~start_line ~headers ~body =
    let meth, path =
      match String.split_on_char ' ' start_line with
      | m :: p :: _ -> (m, p)
      | _ -> ("GET", "/")
    in
    let resp = handler { meth; path; headers; body } in
    (* stream out the whole response, then close *)
    let out = render_response resp in
    let off = ref 0 in
    let rec pump () =
      let len = String.length out in
      if !off < len then begin
        let n = Tcb.send tcb (String.sub out !off (len - !off)) in
        off := !off + n;
        if !off < len then Tcb.set_on_drain tcb pump else Tcb.close tcb
      end
      else Tcb.close tcb
    in
    pump ()
  in
  let p = mk_parser respond in
  Tcb.set_on_data tcb (fun d -> feed p d);
  Tcb.set_on_eof tcb (fun () -> Tcb.close tcb)

let serve stack ~port handler =
  Stack.listen stack ~port ~on_accept:(handle_connection handler)

let serve_replicated repl ~port handler =
  Tcpfo_core.Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
      handle_connection handler tcb)

(* ------------------------------------------------------------------ *)
(* Client                                                             *)

let request stack ~server ~req ~on_response () =
  let tcb = Stack.connect stack ~remote:server () in
  let done_ = ref false in
  let finish r =
    if not !done_ then begin
      done_ := true;
      on_response r
    end
  in
  let p =
    mk_parser (fun ~start_line ~headers ~body ->
        match String.split_on_char ' ' start_line with
        | _ :: code :: rest ->
          finish
            (Some
               {
                 status = (try int_of_string code with _ -> 0);
                 reason = String.concat " " rest;
                 resp_headers = headers;
                 resp_body = body;
               })
        | _ -> finish None)
  in
  Tcb.set_on_data tcb (fun d -> feed p d);
  Tcb.set_on_reset tcb (fun () -> finish None);
  Tcb.set_on_eof tcb (fun () ->
      Tcb.close tcb;
      (* server closed without a complete message *)
      finish None);
  Tcb.set_on_established tcb (fun () ->
      let out = render_request req in
      let off = ref 0 in
      let rec pump () =
        let len = String.length out in
        if !off < len then begin
          let n = Tcb.send tcb (String.sub out !off (len - !off)) in
          off := !off + n;
          if !off < len then Tcb.set_on_drain tcb pump else pump ()
        end
      in
      pump ());
  tcb

let get stack ~server ~path ~on_response () =
  request stack ~server
    ~req:{ meth = "GET"; path; headers = []; body = "" }
    ~on_response ()

let post stack ~server ~path ~body ~on_response () =
  request stack ~server
    ~req:{ meth = "POST"; path; headers = []; body }
    ~on_response ()
