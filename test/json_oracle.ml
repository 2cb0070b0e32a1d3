(* The reference JSON layer: the tree parser, the tree validator for
   Perfetto traces and the Printf-based Perfetto renderer the library's
   one-pass reader, validator and writer replaced. The laws in test_obs
   check that the library gives the same verdicts, the same error texts and
   the same bytes. *)

module Json = Cpufree_core.Json
module E = Cpufree_engine
module Trace = E.Trace
module Time = E.Time
module Metrics = Cpufree_obs.Metrics

(* Recursive-descent parser: one [Some c] per byte read and one [Buffer] per
   string. *)

exception Parse_error of int * string

let of_string s =
  let open Json in
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected %C, found %C" c d)
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        true
      | _ -> false
    do
      ()
    done
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = s.[!pos] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= len then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          go ()
        | 'b' ->
          Buffer.add_char buf '\b';
          go ()
        | 'f' ->
          Buffer.add_char buf '\012';
          go ()
        | 'n' ->
          Buffer.add_char buf '\n';
          go ()
        | 'r' ->
          Buffer.add_char buf '\r';
          go ()
        | 't' ->
          Buffer.add_char buf '\t';
          go ()
        | 'u' ->
          utf8_add buf (parse_hex4 ());
          go ()
        | _ -> fail "invalid escape")
      | c when Char.code c < 0x20 -> fail "unescaped control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_int = ref true in
    if peek () = Some '-' then advance ();
    while
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        true
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
        is_int := false;
        advance ();
        true
      | _ -> false
    do
      ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_int then
      match int_of_string_opt text with
      | Some n -> Int n
      | None -> fail "invalid number"
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "invalid number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)


(* Walks the parsed tree with [List.assoc_opt], so the first of repeated
   member names counts. *)

let validate doc =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* kvs =
    match doc with Json.Obj kvs -> Ok kvs | _ -> err "trace document is not an object"
  in
  let* events =
    match List.assoc_opt "traceEvents" kvs with
    | Some (Json.List es) -> Ok es
    | Some _ -> err "\"traceEvents\" is not a list"
    | None -> err "missing \"traceEvents\""
  in
  (* last X-event timestamp seen per (pid, tid) *)
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  (* flow id -> (starts seen, finishes seen, start ts, finish ts) *)
  let flows : (int, int * int * float * float) Hashtbl.t = Hashtbl.create 16 in
  let num = function
    | Some (Json.Int n) -> Some (float_of_int n)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  let check_event i ev =
    let what = Printf.sprintf "traceEvents[%d]" i in
    let* fields =
      match ev with Json.Obj kvs -> Ok kvs | _ -> err "%s is not an object" what
    in
    let* () =
      match List.assoc_opt "name" fields with
      | Some (Json.String _) -> Ok ()
      | _ -> err "%s has no string \"name\"" what
    in
    let* pid =
      match List.assoc_opt "pid" fields with
      | Some (Json.Int p) -> Ok p
      | _ -> err "%s has no integer \"pid\"" what
    in
    let tid = match List.assoc_opt "tid" fields with Some (Json.Int t) -> Some t | _ -> None in
    let ts = num (List.assoc_opt "ts" fields) in
    match List.assoc_opt "ph" fields with
    | Some (Json.String "M") -> Ok ()
    | Some (Json.String "X") -> (
      let* tid = match tid with Some t -> Ok t | None -> err "%s has no \"tid\"" what in
      let* ts = match ts with Some t -> Ok t | None -> err "%s has no \"ts\"" what in
      let* () = if ts >= 0.0 then Ok () else err "%s has negative \"ts\"" what in
      match num (List.assoc_opt "dur" fields) with
      | Some d when d >= 0.0 ->
        let lane = (pid, tid) in
        let* () =
          match Hashtbl.find_opt last_ts lane with
          | Some prev when ts < prev ->
            err "%s breaks per-lane monotonicity (ts %g after %g on pid=%d tid=%d)" what ts prev
              pid tid
          | Some _ | None -> Ok ()
        in
        Hashtbl.replace last_ts lane ts;
        Ok ()
      | Some _ -> err "%s has negative \"dur\"" what
      | None -> err "%s has no numeric \"dur\"" what)
    | Some (Json.String "i") ->
      let* _ = match tid with Some t -> Ok t | None -> err "%s has no \"tid\"" what in
      (match ts with Some _ -> Ok () | None -> err "%s has no \"ts\"" what)
    | Some (Json.String (("s" | "f") as ph)) -> (
      let* _ = match tid with Some t -> Ok t | None -> err "%s has no \"tid\"" what in
      let* ts = match ts with Some t -> Ok t | None -> err "%s has no \"ts\"" what in
      match List.assoc_opt "id" fields with
      | Some (Json.Int id) ->
        let s, f, sts, fts =
          match Hashtbl.find_opt flows id with
          | Some q -> q
          | None -> (0, 0, 0.0, 0.0)
        in
        if ph = "s" then Hashtbl.replace flows id (s + 1, f, ts, fts)
        else Hashtbl.replace flows id (s, f + 1, sts, ts);
        Ok ()
      | _ -> err "%s flow event has no integer \"id\"" what)
    | Some (Json.String "C") -> (
      match ts with Some _ -> Ok () | None -> err "%s has no \"ts\"" what)
    | Some (Json.String ph) -> err "%s has unexpected phase %S" what ph
    | _ -> err "%s has no string \"ph\"" what
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
      let* () = check_event i ev in
      go (i + 1) rest
  in
  let* () = go 0 events in
  Hashtbl.fold
    (fun id (s, f, sts, fts) acc ->
      let* () = acc in
      if s <> 1 || f <> 1 then
        err "flow id %d has %d start(s) and %d finish(es) (want exactly one of each)" id s f
      else if fts < sts then err "flow id %d finishes (%g) before it starts (%g)" id fts sts
      else Ok ())
    flows (Ok ())

let validate_string s = match of_string s with Ok doc -> validate doc | Error _ as e -> e

(* One [Printf.sprintf] per event and one escaped copy per label. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pid_of_lane = Cpufree_obs.Perfetto.pid_of_lane

let ts_str t = Printf.sprintf "%.3f" (Time.to_us_float t)

let metric_track_name (it : Metrics.item) =
  match it.Metrics.labels with
  | [] -> it.Metrics.name
  | ls ->
    Printf.sprintf "%s{%s}" it.Metrics.name
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls))

let to_json_string ?metrics trace =
  let buf = Buffer.create 8192 in
  let first = ref true in
  let event s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  (* Stable tid per lane, assigned in sorted-lane order. *)
  let lanes = Trace.lanes trace in
  let lane_tid = Hashtbl.create 16 in
  List.iteri (fun i lane -> Hashtbl.replace lane_tid lane i) lanes;
  let tid lane = match Hashtbl.find_opt lane_tid lane with Some i -> i | None -> 0 in
  (* Process/thread metadata first: names for every pid and lane. *)
  let pids = List.sort_uniq Int.compare (0 :: List.map pid_of_lane lanes) in
  List.iter
    (fun pid ->
      let pname = if pid = 0 then "host+fabric" else Printf.sprintf "gpu%d" (pid - 1) in
      event
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid pname))
    pids;
  List.iter
    (fun lane ->
      event
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (pid_of_lane lane) (tid lane) (escape lane)))
    lanes;
  (* Spans in canonical order: monotone ts globally, hence per lane. *)
  List.iter
    (fun (s : Trace.span) ->
      let pid = pid_of_lane s.Trace.lane and t = tid s.Trace.lane in
      if s.Trace.kind = Trace.Marker && Time.equal s.Trace.t0 s.Trace.t1 then
        event
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"marker\",\"ph\":\"i\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"s\":\"t\"}"
             (escape s.Trace.label) (ts_str s.Trace.t0) pid t)
      else
        event
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%.3f,\"pid\":%d,\"tid\":%d}"
             (escape s.Trace.label)
             (match s.Trace.kind with
             | Trace.Compute -> "compute"
             | Trace.Communication -> "communication"
             | Trace.Synchronization -> "synchronization"
             | Trace.Api -> "api"
             | Trace.Marker -> "marker")
             (ts_str s.Trace.t0)
             (Time.to_us_float (Time.sub s.Trace.t1 s.Trace.t0))
             pid t))
    (Trace.sorted_spans trace);
  (* Flow arrows: an "s" at the source, an "f" (binding point "enclosing
     slice") at the destination, tied by id. *)
  List.iter
    (fun (f : Trace.flow) ->
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
           (escape f.Trace.flabel) f.Trace.fid (ts_str f.Trace.f_src_t)
           (pid_of_lane f.Trace.f_src_lane) (tid f.Trace.f_src_lane));
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
           (escape f.Trace.flabel) f.Trace.fid (ts_str f.Trace.f_dst_t)
           (pid_of_lane f.Trace.f_dst_lane) (tid f.Trace.f_dst_lane)))
    (Trace.sorted_flows trace);
  (* Counter tracks: the registry stores run totals, so each counter gets a
     zero sample at the trace origin and its total at the trace end; gauges
     get a single end-of-run sample. *)
  (match metrics with
  | None -> ()
  | Some reg ->
    let lo, hi =
      match Trace.window trace with Some (lo, hi) -> (lo, hi) | None -> (Time.zero, Time.zero)
    in
    List.iter
      (fun (it : Metrics.item) ->
        (* The engine.* namespace describes the simulator, not the simulated
           machine. It stays available in metrics.json. *)
        if String.length it.Metrics.name >= 7 && String.sub it.Metrics.name 0 7 = "engine."
        then ()
        else
        let track = escape (metric_track_name it) in
        match it.Metrics.value with
        | Metrics.Counter_v v ->
          event
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":0,\"args\":{\"value\":0}}" track
               (ts_str lo));
          event
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":0,\"args\":{\"value\":%d}}" track
               (ts_str hi) v)
        | Metrics.Gauge_v v ->
          event
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":0,\"args\":{\"value\":%d}}" track
               (ts_str hi) v)
        | Metrics.Histogram_v _ -> ())
      (Metrics.items reg));
  Buffer.add_string buf "]}";
  Buffer.contents buf

