(* Minimal big-endian binary codec with a versioned, integrity-checked
   envelope.  Deliberately dependency-free: the simulator ships TCB
   snapshots between hosts as opaque strings, and a corrupted or
   truncated payload must surface as [Error], never as a half-installed
   connection. *)

exception Corrupt of string

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  let u16 b v =
    u8 b (v lsr 8);
    u8 b v

  let u32 b v =
    u16 b (v lsr 16);
    u16 b v

  let u64 b (v : int64) =
    for i = 7 downto 0 do
      u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

  let bool b v = u8 b (if v then 1 else 0)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let float b f = u64 b (Int64.bits_of_float f)

  let option b f = function
    | None -> bool b false
    | Some v ->
      bool b true;
      f b v

  let list b f l =
    u32 b (List.length l);
    List.iter (f b) l

  let contents = Buffer.contents
end

module R = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let need r n =
    if n < 0 || r.pos + n > String.length r.data then
      raise (Corrupt "truncated payload")

  let raw r n =
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let u8 r =
    need r 1;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let a = u8 r in
    let b = u8 r in
    (a lsl 8) lor b

  let u32 r =
    let a = u16 r in
    let b = u16 r in
    (a lsl 16) lor b

  let u64 r =
    let v = ref 0L in
    for _ = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 r))
    done;
    !v

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | n -> raise (Corrupt (Printf.sprintf "invalid bool tag %d" n))

  let str r =
    let n = u32 r in
    raw r n

  let float r = Int64.float_of_bits (u64 r)

  let option r f = if bool r then Some (f r) else None

  let list r f =
    let n = u32 r in
    List.init n (fun _ -> f r)

  let at_end r = r.pos = String.length r.data
end

(* FNV-1a 64-bit over the body — deterministic and sensitive to any
   single-bit flip, which is all the integrity check needs inside a
   simulator (this is corruption detection, not authentication).  It runs
   twice per statex chunk ([seal], [unseal]), so it must not allocate:
   [h] is a local ref that never escapes, which ocamlopt keeps as an
   unboxed int64 register across the loop.  A [String.iter] closure would
   capture the ref and box an [Int64] per byte. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let magic = "TFX1"

(* v4: the snapshot body is one form — u64 replay base, TCB layout,
   connection tail — a full image being the base-0 case.  Nothing is
   persisted and every replica runs the same build, so exactly this
   version is accepted; any other version byte is refused before the
   digest is consulted. *)
let version = 4

let seal body =
  let b = Buffer.create (String.length body + 18) in
  Buffer.add_string b magic;
  W.u16 b version;
  W.u32 b (String.length body);
  Buffer.add_string b body;
  W.u64 b (fnv1a64 body);
  Buffer.contents b

let unseal s =
  try
    let r = R.of_string s in
    if R.raw r 4 <> magic then Error "bad magic"
    else
      let v = R.u16 r in
      if v <> version then Error (Printf.sprintf "unsupported version %d" v)
      else
        let len = R.u32 r in
        let body = R.raw r len in
        let sum = R.u64 r in
        if not (R.at_end r) then Error "trailing bytes after envelope"
        else if not (Int64.equal sum (fnv1a64 body)) then
          Error "integrity check failed"
        else Ok body
  with Corrupt m -> Error m
