(* CI smoke for the scenario daemon (dune alias [serve-smoke]): boot a
   daemon with the cache self-check armed, issue three requests — two
   distinct scenarios and one repeat of the first with artifacts enabled —
   and assert the repeat is served from the cache with a byte-identical
   payload (artifacts included). Then speak literal frames on a second
   connection: the documented run body for the first scenario must get
   the client path's result, and its response frame, decoded by hand,
   must carry [Exec.run]'s trace and metrics bytes; a body whose scenario
   line does not parse must get an [error] carrying the parser's reason,
   and the connection must still answer. Finally the counters must agree
   and shutdown must remove the socket. Exits non-zero on any deviation. *)

module Serve = Cpufree_serve
module P = Serve.Protocol
module Scenario = Cpufree_core.Scenario
module J = Cpufree_core.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let () =
  let path = Printf.sprintf "serve-smoke-%d.sock" (Unix.getpid ()) in
  let cfg =
    {
      (Serve.Server.default_config ~socket_path:path) with
      Serve.Server.jobs = 2;
      selfcheck = true;
    }
  in
  let srv = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let rec connect tries =
    match Serve.Client.connect path with
    | Ok c -> c
    | Error e ->
      if tries = 0 then fail "connect: %s" e
      else begin
        Unix.sleepf 0.01;
        connect (tries - 1)
      end
  in
  let c = connect 300 in
  let sc_a =
    Scenario.make ~gpus:2 ~trace:true ~metrics:true
      (Scenario.Stencil { variant = "cpu-free"; dims = "2d:96x96"; iters = 12; no_compute = false })
  in
  let sc_b =
    Scenario.make ~gpus:4
      (Scenario.Stencil
         { variant = "baseline-overlap"; dims = "2d:64x64"; iters = 8; no_compute = false })
  in
  let run id sc =
    match Serve.Client.run c ~id sc with
    | Ok (P.Ok_resp { cached; body = P.Run_result p; _ }) -> (cached, p)
    | Ok (P.Error_resp { message; _ }) -> fail "request %d refused: %s" id message
    | Ok _ -> fail "request %d: unexpected response" id
    | Error e -> fail "request %d: %s" id e
  in
  let cached_a, pay_a = run 1 sc_a in
  let cached_b, _ = run 2 sc_b in
  let cached_a2, pay_a2 = run 3 sc_a in
  if cached_a then fail "first request claimed a cache hit on an empty cache";
  if cached_b then fail "a distinct scenario claimed a cache hit";
  if not cached_a2 then fail "the repeated scenario was not served from the cache";
  if not (P.payload_equal pay_a pay_a2) then
    fail "the cache hit is not byte-identical to the original run";
  (match (pay_a.P.trace, pay_a.P.metrics) with
  | Some _, Some _ -> ()
  | _ -> fail "artifacts missing from the traced run");
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let buf = P.Framebuf.create () in
  let raw body =
    P.write_frame fd [ body ];
    match Result.bind (P.read_frame fd buf) P.response_of_frame with
    | Ok r -> r
    | Error e -> fail "literal frame: %s" e
  in
  (* The literal artifact request, its response frame read and decoded by
     hand as protocol.mli lays it out: [<len>\n], then [<header len>\n],
     the JSON header with each artifact as its byte length, the metrics
     bytes and the trace bytes. *)
  let line = "stencil variant=cpu-free dims=2d:96x96 iters=12 gpus=2 trace=on metrics=on" in
  let request =
    let body = Printf.sprintf {|{"id":10,"op":"run","scenario":"%s"}|} line in
    Printf.sprintf "%d\n%s" (String.length body) body
  in
  if Unix.write_substring fd request 0 (String.length request) <> String.length request then
    fail "artifact request: short write";
  let byte = Bytes.create 1 in
  let rec read_line acc =
    if Unix.read fd byte 0 1 <> 1 then fail "artifact frame: connection closed";
    if Bytes.get byte 0 = '\n' then acc else read_line (acc ^ Bytes.to_string byte)
  in
  let frame_len = int_of_string (read_line "") in
  let payload = Bytes.create frame_len in
  let rec fill off =
    if off < frame_len then
      match Unix.read fd payload off (frame_len - off) with
      | 0 -> fail "artifact frame: connection closed"
      | n -> fill (off + n)
  in
  fill 0;
  let payload = Bytes.to_string payload in
  let nl = String.index payload '\n' in
  let header_len = int_of_string (String.sub payload 0 nl) in
  let header =
    match J.of_string (String.sub payload (nl + 1) header_len) with
    | Ok h -> h
    | Error e -> fail "artifact frame header: %s" e
  in
  let length name =
    match Option.bind (J.member "result" header) (J.member "artifacts") with
    | Some arts -> (
      match J.member name arts with
      | Some (J.Int n) -> n
      | _ -> fail "artifact frame header: no %s length" name)
    | None -> fail "artifact frame header: no artifacts"
  in
  let metrics_len = length "metrics" and trace_len = length "trace" in
  if nl + 1 + header_len + metrics_len + trace_len <> frame_len then
    fail "artifact frame: the declared lengths do not fill the payload";
  let metrics = String.sub payload (nl + 1 + header_len) metrics_len in
  let trace = String.sub payload (nl + 1 + header_len + metrics_len) trace_len in
  (match Scenario.of_string line with
  | Error e -> fail "literal line rejected: %s" e
  | Ok sc -> (
    match Serve.Exec.run sc with
    | Ok { P.metrics = Some m; trace = Some t; _ } ->
      if m <> metrics then fail "the frame's metrics bytes differ from Exec.run's";
      if t <> trace then fail "the frame's trace bytes differ from Exec.run's"
    | Ok _ -> fail "Exec.run gave no artifacts"
    | Error e -> fail "Exec.run: %s" e));
  (match P.response_of_frame payload with
  | Ok (P.Ok_resp { id = 10; body = P.Run_result p; _ }) ->
    if not (P.payload_equal p pay_a) then fail "the literal run frame got another result"
  | _ -> fail "the literal run frame was not answered with a result");
  let reason =
    match Scenario.of_string "stencil iters=zero" with
    | Error e -> e
    | Ok _ -> fail "of_string accepted iters=zero"
  in
  (match raw {|{"id":11,"op":"run","scenario":"stencil iters=zero"}|} with
  | P.Error_resp { id = 11; message } ->
    if message <> "run request: " ^ reason then fail "error %S lacks the parser's reason" message
  | _ -> fail "a scenario line of_string rejects was not answered with an error");
  (match raw {|{"id":12,"op":"stats"}|} with
  | P.Ok_resp { id = 12; body = P.Stats_result _; _ } -> ()
  | _ -> fail "the connection did not survive the rejected line");
  Unix.close fd;
  (match Serve.Client.stats c ~id:4 with
  | Ok st ->
    if st.P.simulations <> 2 then fail "expected 2 simulations, daemon reports %d" st.P.simulations;
    if st.P.hits <> 2 then fail "expected 2 cache hits, daemon reports %d" st.P.hits;
    if st.P.errors <> 1 then fail "expected 1 error, daemon reports %d" st.P.errors;
    if st.P.overloads <> 0 then fail "spurious overloads (%d)" st.P.overloads
  | Error e -> fail "stats: %s" e);
  (match Serve.Client.shutdown c ~id:5 with
  | Ok () -> ()
  | Error e -> fail "shutdown: %s" e);
  Serve.Client.close c;
  Domain.join srv;
  (match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | _ -> fail "socket file left behind after shutdown");
  print_endline
    "serve-smoke: OK (3 requests, 1 byte-identical cache hit, 3 literal frames, clean shutdown)"
