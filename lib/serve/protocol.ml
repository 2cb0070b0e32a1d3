module J = Cpufree_core.Json
module Scenario = Cpufree_core.Scenario

type op =
  | Run of Scenario.t
  | Stats
  | Shutdown

type request = { req_id : int; req_op : op }

type chaos_summary = {
  completed : bool;
  trigger : string option;
  dropped : int;
  delayed : int;
  resent : int;
  retried : int;
}

type run_payload = {
  label : string;
  gpus : int;
  iterations : int;
  total_ns : int;
  per_iter_ns : int;
  comm_ns : int;
  overlap : float;
  bytes_moved : int;
  chaos : chaos_summary option;
  metrics : string option;
  trace : string option;
}

type stats_payload = {
  requests : int;
  hits : int;
  misses : int;
  coalesced : int;
  overloads : int;
  errors : int;
  simulations : int;
  cache_entries : int;
}

type body =
  | Run_result of run_payload
  | Stats_result of stats_payload
  | Shutdown_ack

type response =
  | Ok_resp of { id : int; cached : bool; digest : string option; body : body }
  | Error_resp of { id : int; message : string }
  | Overload_resp of { id : int }

(* --- JSON ----------------------------------------------------------------- *)

let opt_string = function None -> J.Null | Some s -> J.String s

let request_to_json { req_id; req_op } =
  let base = [ ("id", J.Int req_id) ] in
  J.Obj
    (match req_op with
    | Run sc -> base @ [ ("op", J.String "run"); ("scenario", J.String (Scenario.to_string sc)) ]
    | Stats -> base @ [ ("op", J.String "stats") ]
    | Shutdown -> base @ [ ("op", J.String "shutdown") ])

let int_field name j =
  match J.member name j with
  | Some (J.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "request: missing or non-integer %S" name)

let request_of_json j =
  let ( let* ) = Result.bind in
  let* id = int_field "id" j in
  match J.member "op" j with
  | Some (J.String "run") -> (
    match J.member "scenario" j with
    | Some (J.String line) -> (
      match Scenario.of_string line with
      | Ok sc -> Ok { req_id = id; req_op = Run sc }
      | Error e -> Error ("run request: " ^ e))
    | Some _ -> Error "run request: \"scenario\" must be a string"
    | None -> Error "run request: missing \"scenario\"")
  | Some (J.String "stats") -> Ok { req_id = id; req_op = Stats }
  | Some (J.String "shutdown") -> Ok { req_id = id; req_op = Shutdown }
  | Some (J.String other) -> Error (Printf.sprintf "unknown op %S" other)
  | _ -> Error "request: missing or non-string \"op\""

let chaos_to_json c =
  J.Obj
    [
      ("completed", J.Bool c.completed);
      ("trigger", opt_string c.trigger);
      ("dropped", J.Int c.dropped);
      ("delayed", J.Int c.delayed);
      ("resent", J.Int c.resent);
      ("retried", J.Int c.retried);
    ]

let chaos_of_json j =
  let ( let* ) = Result.bind in
  let* dropped = int_field "dropped" j in
  let* delayed = int_field "delayed" j in
  let* resent = int_field "resent" j in
  let* retried = int_field "retried" j in
  let* completed =
    match J.member "completed" j with
    | Some (J.Bool b) -> Ok b
    | _ -> Error "chaos: missing \"completed\""
  in
  let* trigger =
    match J.member "trigger" j with
    | Some J.Null | None -> Ok None
    | Some (J.String s) -> Ok (Some s)
    | _ -> Error "chaos: bad \"trigger\""
  in
  Ok { completed; trigger; dropped; delayed; resent; retried }

(* [artifact] writes each present artifact: as its text in a full JSON
   response, as its byte length in a frame header. *)
let payload_to_json ~artifact p =
  let opt_artifact = function None -> J.Null | Some s -> artifact s in
  J.Obj
    [
      ("label", J.String p.label);
      ("gpus", J.Int p.gpus);
      ("iterations", J.Int p.iterations);
      ("total_ns", J.Int p.total_ns);
      ("per_iter_ns", J.Int p.per_iter_ns);
      ("comm_ns", J.Int p.comm_ns);
      ("overlap", J.Float p.overlap);
      ("bytes_moved", J.Int p.bytes_moved);
      ("chaos", match p.chaos with None -> J.Null | Some c -> chaos_to_json c);
      ( "artifacts",
        J.Obj [ ("metrics", opt_artifact p.metrics); ("trace", opt_artifact p.trace) ] );
    ]

let opt_string_field ctx name j =
  match J.member name j with
  | Some J.Null | None -> Ok None
  | Some (J.String s) -> Ok (Some s)
  | _ -> Error (Printf.sprintf "%s: bad %S" ctx name)

let payload_of_json ~artifact j =
  let ( let* ) = Result.bind in
  let* label =
    match J.member "label" j with
    | Some (J.String s) -> Ok s
    | _ -> Error "result: missing \"label\""
  in
  let* gpus = int_field "gpus" j in
  let* iterations = int_field "iterations" j in
  let* total_ns = int_field "total_ns" j in
  let* per_iter_ns = int_field "per_iter_ns" j in
  let* comm_ns = int_field "comm_ns" j in
  let* bytes_moved = int_field "bytes_moved" j in
  let* overlap =
    match J.member "overlap" j with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> Error "result: missing \"overlap\""
  in
  let* chaos =
    match J.member "chaos" j with
    | Some J.Null | None -> Ok None
    | Some cj -> Result.map Option.some (chaos_of_json cj)
  in
  let arts = match J.member "artifacts" j with Some a -> a | None -> J.Obj [] in
  let artifact_field name =
    match J.member name arts with
    | Some J.Null | None -> Ok None
    | Some v -> (
      match artifact v with
      | Ok s -> Ok (Some s)
      | Error e -> Error (Printf.sprintf "artifacts: bad %S: %s" name e))
  in
  (* Metrics before trace: the order a frame carries their bytes in. *)
  let* metrics = artifact_field "metrics" in
  let* trace = artifact_field "trace" in
  Ok
    {
      label;
      gpus;
      iterations;
      total_ns;
      per_iter_ns;
      comm_ns;
      overlap;
      bytes_moved;
      chaos;
      metrics;
      trace;
    }

let stats_to_json s =
  J.Obj
    [
      ("requests", J.Int s.requests);
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("coalesced", J.Int s.coalesced);
      ("overloads", J.Int s.overloads);
      ("errors", J.Int s.errors);
      ("simulations", J.Int s.simulations);
      ("cache_entries", J.Int s.cache_entries);
    ]

let stats_of_json j =
  let ( let* ) = Result.bind in
  let* requests = int_field "requests" j in
  let* hits = int_field "hits" j in
  let* misses = int_field "misses" j in
  let* coalesced = int_field "coalesced" j in
  let* overloads = int_field "overloads" j in
  let* errors = int_field "errors" j in
  let* simulations = int_field "simulations" j in
  let* cache_entries = int_field "cache_entries" j in
  Ok { requests; hits; misses; coalesced; overloads; errors; simulations; cache_entries }

let encode ~artifact = function
  | Ok_resp { id; cached; digest; body } ->
    let body_fields =
      match body with
      | Run_result p -> [ ("result", payload_to_json ~artifact p) ]
      | Stats_result s -> [ ("stats", stats_to_json s) ]
      | Shutdown_ack -> [ ("shutdown", J.Bool true) ]
    in
    J.Obj
      ([
         ("id", J.Int id);
         ("status", J.String "ok");
         ("cached", J.Bool cached);
         ("digest", opt_string digest);
       ]
      @ body_fields)
  | Error_resp { id; message } ->
    J.Obj [ ("id", J.Int id); ("status", J.String "error"); ("error", J.String message) ]
  | Overload_resp { id } -> J.Obj [ ("id", J.Int id); ("status", J.String "overload") ]

let decode ~artifact j =
  let ( let* ) = Result.bind in
  let* id = int_field "id" j in
  match J.member "status" j with
  | Some (J.String "ok") ->
    let* cached =
      match J.member "cached" j with
      | Some (J.Bool b) -> Ok b
      | _ -> Error "response: missing \"cached\""
    in
    let* digest = opt_string_field "response" "digest" j in
    let* body =
      match (J.member "result" j, J.member "stats" j, J.member "shutdown" j) with
      | Some rj, _, _ -> Result.map (fun p -> Run_result p) (payload_of_json ~artifact rj)
      | None, Some sj, _ -> Result.map (fun s -> Stats_result s) (stats_of_json sj)
      | None, None, Some _ -> Ok Shutdown_ack
      | None, None, None -> Error "ok response: no body"
    in
    Ok (Ok_resp { id; cached; digest; body })
  | Some (J.String "error") -> (
    match J.member "error" j with
    | Some (J.String message) -> Ok (Error_resp { id; message })
    | _ -> Error "error response: missing \"error\"")
  | Some (J.String "overload") -> Ok (Overload_resp { id })
  | _ -> Error "response: missing or unknown \"status\""

let payload_equal (a : run_payload) (b : run_payload) = a = b

let response_to_json = encode ~artifact:(fun s -> J.String s)

let response_of_json =
  decode ~artifact:(function J.String s -> Ok s | _ -> Error "expected a string")

(* --- response frames ------------------------------------------------------ *)

(* A response payload is [<header length>\n<header><metrics><trace>]: the
   header is [response_to_json] with each present artifact as its byte
   length, and the artifacts follow it raw, in that order. *)
let artifacts = function
  | Ok_resp { body = Run_result p; _ } -> List.filter_map Fun.id [ p.metrics; p.trace ]
  | Ok_resp _ | Error_resp _ | Overload_resp _ -> []

let response_to_frame resp =
  let header = J.to_string ~indent:0 (encode ~artifact:(fun s -> J.Int (String.length s)) resp) in
  (string_of_int (String.length header) ^ "\n" ^ header) :: artifacts resp

let response_of_frame payload =
  let ( let* ) = Result.bind in
  let len = String.length payload in
  let* nl =
    Option.to_result (String.index_opt payload '\n')
      ~none:"response frame: no header length line"
  in
  let* hlen =
    match int_of_string_opt (String.sub payload 0 nl) with
    | Some h when h >= 0 && h <= len - nl - 1 -> Ok h
    | _ -> Error "response frame: bad header length"
  in
  let* header =
    Result.map_error
      (fun e -> "malformed response header: " ^ e)
      (J.of_string (String.sub payload (nl + 1) hlen))
  in
  let pos = ref (nl + 1 + hlen) in
  let artifact = function
    | J.Int n when n < 0 -> Error (Printf.sprintf "negative length %d" n)
    | J.Int n when n > len - !pos -> Error (Printf.sprintf "length %d overruns the frame" n)
    | J.Int n ->
      let s = String.sub payload !pos n in
      pos := !pos + n;
      Ok s
    | _ -> Error "expected a byte length"
  in
  let* resp = decode ~artifact header in
  if !pos = len then Ok resp
  else Error (Printf.sprintf "response frame: %d bytes after the artifacts" (len - !pos))

(* --- framing -------------------------------------------------------------- *)

let max_frame = 16 * 1024 * 1024

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)
  end

(* The length line, then each part straight from its string. *)
let write_frame fd parts =
  let write s = write_all fd (Bytes.unsafe_of_string s) 0 (String.length s) in
  write (string_of_int (List.fold_left (fun n s -> n + String.length s) 0 parts) ^ "\n");
  List.iter write parts

module Framebuf = struct
  type t = { mutable data : Bytes.t; mutable len : int }

  let create () = { data = Bytes.create 4096; len = 0 }

  (* Room for at least [need] bytes in all. *)
  let reserve t need =
    if need > Bytes.length t.data then begin
      let grown = Bytes.create (max need (2 * Bytes.length t.data)) in
      Bytes.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end

  let feed t bytes ~len =
    if len > 0 then begin
      reserve t (t.len + len);
      Bytes.blit bytes 0 t.data t.len len;
      t.len <- t.len + len
    end

  (* A frame header is at most the digits of [max_frame] plus the newline,
     so the newline is looked for in the first [header_max] bytes only: the
     verdict then depends on the bytes, not on how they were cut into
     reads. *)
  let header_max = 25

  (* [Some (header length, payload length)] of the frame the buffer starts
     with, once its header is in, however much of the payload is. *)
  let header t =
    let limit = min t.len header_max in
    let rec newline i =
      if i >= limit then -1 else if Bytes.get t.data i = '\n' then i else newline (i + 1)
    in
    match newline 0 with
    | -1 -> if t.len >= header_max then Error "framing: no length header" else Ok None
    | nl -> (
      let header = Bytes.sub_string t.data 0 nl in
      match int_of_string_opt (String.trim header) with
      | None -> Error (Printf.sprintf "framing: bad length header %S" header)
      | Some n when n < 0 || n > max_frame ->
        Error (Printf.sprintf "framing: length %d out of bounds" n)
      | Some n -> Ok (Some (nl + 1, n)))

  let take t hdr n =
    let payload = Bytes.sub_string t.data hdr n in
    Bytes.blit t.data (hdr + n) t.data 0 (t.len - hdr - n);
    t.len <- t.len - hdr - n;
    payload

  let next t =
    match header t with
    | Ok (Some (hdr, n)) when t.len - hdr >= n -> Ok (Some (take t hdr n))
    | Ok _ -> Ok None
    | Error _ as e -> e
end

(* Until a frame's header is in, reads go into the frame buffer. Then the
   rest of its payload is read straight into the payload's own string, so
   a large frame is never copied after it is read. *)
let read_frame fd (buf : Framebuf.t) =
  let rec go () =
    match Framebuf.header buf with
    | Error _ as e -> e
    | Ok (Some (hdr, n)) when buf.len - hdr >= n -> Ok (Framebuf.take buf hdr n)
    | Ok (Some (hdr, n)) ->
      let payload = Bytes.create n in
      let have = buf.len - hdr in
      Bytes.blit buf.data hdr payload 0 have;
      buf.len <- 0;
      let rec fill off =
        if off = n then Ok (Bytes.unsafe_to_string payload)
        else
          match Unix.read fd payload off (n - off) with
          | 0 -> Error "connection closed"
          | k -> fill (off + k)
      in
      fill have
    | Ok None -> (
      Framebuf.reserve buf (buf.len + 4096);
      match Unix.read fd buf.data buf.len (Bytes.length buf.data - buf.len) with
      | 0 -> Error "connection closed"
      | n ->
        buf.len <- buf.len + n;
        go ())
  in
  go ()
