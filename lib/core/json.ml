type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_nan x || Float.is_finite x = false then "null"
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let add_string buf s =
  Buffer.add_char buf '"';
  Cpufree_obs.Json_escape.add buf s;
  Buffer.add_char buf '"'

let rec emit buf ~indent ~level v =
  let pad n =
    for _ = 1 to n * indent do
      Buffer.add_char buf ' '
    done
  in
  let newline () = if indent > 0 then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    newline ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        emit buf ~indent ~level:(level + 1) item)
      items;
    newline ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    newline ();
    List.iteri
      (fun i (k, item) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        add_string buf k;
        Buffer.add_string buf (if indent > 0 then ": " else ":");
        emit buf ~indent ~level:(level + 1) item)
      fields;
    newline ();
    pad level;
    Buffer.add_char buf '}'

let to_string ?(indent = 2) v =
  let buf = Buffer.create 4096 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_channel ?indent oc v =
  output_string oc (to_string ?indent v);
  output_char oc '\n'

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

(* A recursive-descent reader over a string. The reader checks every byte
   and copies out only the values its caller asks for: strings without
   escapes in one [String.sub], numbers without a [String.sub] when they fit
   the fast paths below. *)
module Scan = struct
  type cursor = { s : string; len : int; mutable pos : int }

  exception Parse_error of int * string

  let fail c msg = raise (Parse_error (c.pos, msg))
  let peek c = if c.pos < c.len then String.unsafe_get c.s c.pos else '\000'

  let skip_ws c =
    while
      c.pos < c.len
      && match String.unsafe_get c.s c.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      c.pos <- c.pos + 1
    done

  let expect c ch =
    if c.pos >= c.len then fail c (Printf.sprintf "expected %C, found end of input" ch)
    else if c.s.[c.pos] = ch then c.pos <- c.pos + 1
    else fail c (Printf.sprintf "expected %C, found %C" ch c.s.[c.pos])

  let literal c word =
    let n = String.length word in
    let rec same i = i = n || (c.s.[c.pos + i] = word.[i] && same (i + 1)) in
    if c.pos + n <= c.len && same 0 then c.pos <- c.pos + n
    else fail c (Printf.sprintf "invalid literal (expected %s)" word)

  let hex_digit = function
    | '0' .. '9' as ch -> Char.code ch - Char.code '0'
    | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
    | _ -> -1

  let hex4 c =
    if c.pos + 4 > c.len then fail c "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d = hex_digit c.s.[c.pos] in
      if d < 0 then fail c "invalid \\u escape";
      v := (!v * 16) + d;
      c.pos <- c.pos + 1
    done;
    !v

  (* Bytes a string literal cannot hold as they are: the quote, the
     backslash and the control characters. *)
  let special =
    String.init 256 (fun i -> if i < 0x20 || i = 0x22 || i = 0x5C then '\001' else '\000')

  (* Check a string literal and step past it. The result is the length of
     its value, which is shorter than its body exactly when it holds an
     escape. *)
  let scan_string c =
    expect c '"';
    let start = c.pos and removed = ref 0 and closed = ref false in
    while not !closed do
      let i = ref c.pos in
      while
        !i < c.len && String.unsafe_get special (Char.code (String.unsafe_get c.s !i)) = '\000'
      do
        incr i
      done;
      c.pos <- !i + 1;
      if !i >= c.len then begin
        c.pos <- c.len;
        fail c "unterminated string"
      end;
      match String.unsafe_get c.s !i with
      | '"' -> closed := true
      | '\\' -> (
        if c.pos >= c.len then fail c "unterminated escape";
        let e = String.unsafe_get c.s c.pos in
        c.pos <- c.pos + 1;
        match e with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> incr removed
        | 'u' ->
          let cp = hex4 c in
          removed := !removed + if cp < 0x80 then 5 else if cp < 0x800 then 4 else 3
        | _ -> fail c "invalid escape")
      | _ -> fail c "unescaped control character in string"
    done;
    c.pos - 1 - start - !removed

  (* The [n]-byte value of the checked literal body s.[i .. stop - 1]. *)
  let unescape s i stop n =
    let out = Bytes.create n and i = ref i and j = ref 0 in
    let put ch =
      Bytes.unsafe_set out !j ch;
      incr j
    in
    while !i < stop do
      let ch = String.unsafe_get s !i in
      if ch <> '\\' then begin
        put ch;
        incr i
      end
      else begin
        (match String.unsafe_get s (!i + 1) with
        | 'u' ->
          let d k = hex_digit s.[!i + 2 + k] in
          let cp = (d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3 in
          if cp < 0x80 then put (Char.chr cp)
          else if cp < 0x800 then begin
            put (Char.chr (0xC0 lor (cp lsr 6)));
            put (Char.chr (0x80 lor (cp land 0x3F)))
          end
          else begin
            put (Char.chr (0xE0 lor (cp lsr 12)));
            put (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
            put (Char.chr (0x80 lor (cp land 0x3F)))
          end;
          i := !i + 4
        | 'b' -> put '\b'
        | 'f' -> put '\012'
        | 'n' -> put '\n'
        | 'r' -> put '\r'
        | 't' -> put '\t'
        | e -> put e);
        i := !i + 2
      end
    done;
    Bytes.unsafe_to_string out

  let string c =
    let start = c.pos + 1 in
    let n = scan_string c in
    if n = c.pos - 1 - start then String.sub c.s start n else unescape c.s start (c.pos - 1) n

  let pow10 = Array.init 16 (fun k -> 10.0 ** float_of_int k)

  (* A number is the longest run of [-0-9.eE+] after an optional leading
     minus. A run with no [.eE+-] is an [Int] or an error; anything else
     goes through [float_of_string]. A run of at most 15 digits with one
     interior point is m / 10^k with both operands exact, so one rounded
     division gives the value [float_of_string] would. A trace event's
     pid/tid and ts/dur take these paths; EXPERIMENTS.md has what they save
     trace validation. *)
  let number c =
    let start = c.pos in
    let neg = peek c = '-' in
    let i = ref (if neg then start + 1 else start) in
    let m = ref 0 and digits = ref 0 and point = ref (-1) and plain = ref true in
    while
      !i < c.len
      &&
      match String.unsafe_get c.s !i with
      | '0' .. '9' as ch ->
        m := (!m * 10) + (Char.code ch - Char.code '0');
        incr digits;
        true
      | '.' ->
        if !point >= 0 then plain := false else point := !digits;
        true
      | 'e' | 'E' | '+' | '-' ->
        plain := false;
        true
      | _ -> false
    do
      incr i
    done;
    c.pos <- !i;
    if !plain && !point < 0 then
      if !digits >= 1 && !digits <= 18 then Int (if neg then - !m else !m)
      else
        match int_of_string_opt (String.sub c.s start (!i - start)) with
        | Some n -> Int n
        | None -> fail c "invalid number"
    else if !plain && !point >= 1 && !point < !digits && !digits <= 15 then
      let x = float_of_int !m /. pow10.(!digits - !point) in
      Float (if neg then -.x else x)
    else
      match float_of_string_opt (String.sub c.s start (!i - start)) with
      | Some f -> Float f
      | None -> fail c "invalid number"

  let iter_array c f =
    expect c '[';
    skip_ws c;
    if peek c = ']' then c.pos <- c.pos + 1
    else begin
      f 0;
      skip_ws c;
      let i = ref 1 in
      while peek c = ',' do
        c.pos <- c.pos + 1;
        f !i;
        incr i;
        skip_ws c
      done;
      expect c ']'
    end

  let fields c ~key f =
    expect c '{';
    skip_ws c;
    if peek c = '}' then c.pos <- c.pos + 1
    else begin
      let field () =
        skip_ws c;
        let k = key c in
        skip_ws c;
        expect c ':';
        f k
      in
      field ();
      skip_ws c;
      while peek c = ',' do
        c.pos <- c.pos + 1;
        field ();
        skip_ws c
      done;
      expect c '}'
    end

  let iter_object c f = fields c ~key:string f

  let unexpected c =
    if c.pos >= c.len then fail c "unexpected end of input"
    else fail c (Printf.sprintf "unexpected character %C" c.s.[c.pos])

  let rec skip c =
    skip_ws c;
    match peek c with
    | 'n' -> literal c "null"
    | 't' -> literal c "true"
    | 'f' -> literal c "false"
    | '"' -> ignore (scan_string c : int)
    | '[' -> iter_array c (fun _ -> skip c)
    | '{' -> fields c ~key:(fun c -> ignore (scan_string c : int)) (fun () -> skip c)
    | '-' | '0' .. '9' -> ignore (number c : t)
    | _ -> unexpected c

  let document s read =
    let c = { s; len = String.length s; pos = 0 } in
    match
      let v = read c in
      skip_ws c;
      if c.pos <> c.len then fail c "trailing garbage after document";
      v
    with
    | v -> Ok v
    | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
end

let rec value c =
  Scan.skip_ws c;
  match Scan.peek c with
  | 'n' ->
    Scan.literal c "null";
    Null
  | 't' ->
    Scan.literal c "true";
    Bool true
  | 'f' ->
    Scan.literal c "false";
    Bool false
  | '"' -> String (Scan.string c)
  | '[' ->
    let items = ref [] in
    Scan.iter_array c (fun _ -> items := value c :: !items);
    List (List.rev !items)
  | '{' ->
    let fields = ref [] in
    Scan.iter_object c (fun k -> fields := (k, value c) :: !fields);
    Obj (List.rev !fields)
  | '-' | '0' .. '9' -> Scan.number c
  | _ -> Scan.unexpected c

let of_string s = Scan.document s value
