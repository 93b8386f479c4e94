(* Just enough JSON to read BENCHMARK.json's metric lists back, so the
   smoke run can check the file against what the runner emits. *)

type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of json list
  | Object of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        Buffer.add_char b s.[!pos + 1];
        pos := !pos + 2;
        go ()
      | '\000' -> raise (Bad "unterminated string")
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      Object (members [])
    | '[' ->
      incr pos;
      List (elements [])
    | '"' -> String (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while String.contains "+-0123456789.eE" (peek ()) do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Number f
      | None -> raise (Bad (Printf.sprintf "bad value at %d" start)))
  and members acc =
    skip ();
    if peek () = '}' then begin
      incr pos;
      List.rev acc
    end
    else begin
      if acc <> [] then expect ',';
      let k = str () in
      expect ':';
      let v = value () in
      members ((k, v) :: acc)
    end
  and elements acc =
    skip ();
    if peek () = ']' then begin
      incr pos;
      List.rev acc
    end
    else begin
      if acc <> [] then expect ',';
      let v = value () in
      elements (v :: acc)
    end
  in
  let v = value () in
  skip ();
  if !pos <> n then raise (Bad "trailing text");
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* (name, unit) of every metric listed under [section] *)
let metrics json section =
  match json with
  | Object fields -> (
    match List.assoc_opt section fields with
    | Some (List items) ->
      List.map
        (function
          | Object m -> (
            match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
            | Some (String n), Some (String u) -> (n, u)
            | _ -> raise (Bad ("metric without name or unit in " ^ section)))
          | _ -> raise (Bad ("non-object metric in " ^ section)))
        items
    | _ -> raise (Bad ("no list " ^ section)))
  | _ -> raise (Bad "not an object")
