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

let payload_to_json p =
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
        J.Obj [ ("metrics", opt_string p.metrics); ("trace", opt_string p.trace) ] );
    ]

let opt_string_field ctx name j =
  match J.member name j with
  | Some J.Null | None -> Ok None
  | Some (J.String s) -> Ok (Some s)
  | _ -> Error (Printf.sprintf "%s: bad %S" ctx name)

let payload_of_json j =
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
  let* metrics = opt_string_field "artifacts" "metrics" arts in
  let* trace = opt_string_field "artifacts" "trace" arts in
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

let response_to_json = function
  | Ok_resp { id; cached; digest; body } ->
    let body_fields =
      match body with
      | Run_result p -> [ ("result", payload_to_json p) ]
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

let response_of_json j =
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
      | Some rj, _, _ -> Result.map (fun p -> Run_result p) (payload_of_json rj)
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

(* --- framing -------------------------------------------------------------- *)

let max_frame = 16 * 1024 * 1024

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)
  end

(* The header, then the payload straight from its string. *)
let write_frame fd payload =
  let write s = write_all fd (Bytes.unsafe_of_string s) 0 (String.length s) in
  write (string_of_int (String.length payload) ^ "\n");
  write payload

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

(* Reads go straight into the frame buffer, with room for the whole frame
   once its header is in. *)
let read_frame fd (buf : Framebuf.t) =
  let rec go () =
    match Framebuf.header buf with
    | Error _ as e -> e
    | Ok (Some (hdr, n)) when buf.len - hdr >= n -> Ok (Framebuf.take buf hdr n)
    | Ok frame -> (
      let need = match frame with Some (hdr, n) -> hdr + n | None -> 0 in
      Framebuf.reserve buf (max need (buf.len + 4096));
      match Unix.read fd buf.data buf.len (Bytes.length buf.data - buf.len) with
      | 0 -> Error "connection closed"
      | n ->
        buf.len <- buf.len + n;
        go ())
  in
  go ()
