(* The scenario daemon end to end: wire-protocol round-trips, frame
   reassembly, the LRU result cache, and live servers exercised over real
   Unix sockets — request coalescing, admission control, malformed-input
   isolation, and socket reuse after an abrupt client death. Daemon cases
   each boot their own server on a test-local socket path (the suite runs
   inside the dune sandbox, so short relative paths stay under the
   sun_path limit). *)

module Serve = Cpufree_serve
module P = Serve.Protocol
module Scenario = Cpufree_core.Scenario
module J = Cpufree_core.Json

let sc ?(gpus = 2) ?(iters = 6) ?(trace = false) ?(metrics = false) () =
  Scenario.make ~gpus ~trace ~metrics
    (Scenario.Stencil { variant = "cpu-free"; dims = "2d:64x64"; iters; no_compute = false })

(* A run long enough (hundreds of ms) that follow-up frames sent in the
   same burst are parsed while it is still in flight. *)
let slow_sc ?(iters = 6000) () =
  Scenario.make ~gpus:4
    (Scenario.Stencil { variant = "cpu-free"; dims = "2d:128x128"; iters; no_compute = false })

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip_request req =
  match P.request_of_json (P.request_to_json req) with
  | Ok r -> r
  | Error e -> Alcotest.failf "request did not round-trip: %s" e

let test_request_roundtrip () =
  (match roundtrip_request { P.req_id = 7; req_op = P.Run (sc ()) } with
  | { P.req_id = 7; req_op = P.Run s } ->
    Alcotest.(check bool) "scenario survives the wire" true (s = sc ())
  | _ -> Alcotest.fail "run op lost");
  (match roundtrip_request { P.req_id = 1; req_op = P.Stats } with
  | { P.req_op = P.Stats; _ } -> ()
  | _ -> Alcotest.fail "stats op lost");
  match roundtrip_request { P.req_id = 2; req_op = P.Shutdown } with
  | { P.req_op = P.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "shutdown op lost"

let payload ?(label = "cpu-free") ?chaos ?metrics ?trace () =
  {
    P.label;
    gpus = 4;
    iterations = 30;
    total_ns = 123_456;
    per_iter_ns = 4_115;
    comm_ns = 999;
    overlap = 0.75;
    bytes_moved = 1 lsl 20;
    chaos;
    metrics;
    trace;
  }

let test_response_roundtrip () =
  let check r =
    match P.response_of_json (P.response_to_json r) with
    | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
    | Error e -> Alcotest.failf "response did not round-trip: %s" e
  in
  let chaos =
    { P.completed = true; trigger = Some "kill"; dropped = 1; delayed = 2; resent = 3; retried = 4 }
  in
  check
    (P.Ok_resp
       {
         id = 3;
         cached = true;
         digest = Some "abcd";
         body =
           P.Run_result
             (payload ~chaos ~metrics:"{}\n" ~trace:"{\"traceEvents\":[]}\n" ());
       });
  check
    (P.Ok_resp
       {
         id = 4;
         cached = false;
         digest = None;
         body =
           P.Stats_result
             {
               P.requests = 9;
               hits = 2;
               misses = 3;
               coalesced = 1;
               overloads = 1;
               errors = 0;
               simulations = 3;
               cache_entries = 2;
             };
       });
  check (P.Ok_resp { id = 5; cached = false; digest = None; body = P.Shutdown_ack });
  check (P.Error_resp { id = 6; message = "bad scenario" });
  check (P.Overload_resp { id = 7 })

let test_digest_pdes_invariant () =
  let base = sc () in
  let digest p = Scenario.digest { base with Scenario.pdes = p } in
  let d = digest None in
  List.iter
    (fun p -> Alcotest.(check string) "pdes never reaches the cache key" d (digest (Some p)))
    [ `Seq ];
  if Scenario.digest base = Scenario.digest (sc ~iters:7 ()) then
    Alcotest.fail "distinct scenarios share a digest";
  if Scenario.digest base = Scenario.digest (sc ~trace:true ()) then
    Alcotest.fail "requested artifacts must be part of the cache key"

(* ------------------------------------------------------------------ *)
(* Frame reassembly                                                   *)
(* ------------------------------------------------------------------ *)

let expect_frame buf what expected =
  match P.Framebuf.next buf with
  | Ok got -> Alcotest.(check (option string)) what expected got
  | Error e -> Alcotest.failf "%s: framing error %s" what e

let test_framebuf_split () =
  let buf = P.Framebuf.create () in
  let body = "{\"id\":1,\"op\":\"stats\"}" in
  let frame = Printf.sprintf "%d\n%s" (String.length body) body in
  String.iteri
    (fun i c ->
      if i < String.length frame - 1 then begin
        P.Framebuf.feed buf (Bytes.make 1 c) ~len:1;
        expect_frame buf "incomplete frame yields nothing" None
      end)
    frame;
  P.Framebuf.feed buf (Bytes.make 1 frame.[String.length frame - 1]) ~len:1;
  expect_frame buf "one byte at a time reassembles" (Some body);
  expect_frame buf "buffer drained" None

let test_framebuf_batched () =
  let buf = P.Framebuf.create () in
  let body = "{\"id\":2}" in
  let frame = Printf.sprintf "%d\n%s" (String.length body) body in
  let two = frame ^ frame in
  P.Framebuf.feed buf (Bytes.of_string two) ~len:(String.length two);
  expect_frame buf "first of two frames in one read" (Some body);
  expect_frame buf "second of two frames in one read" (Some body);
  expect_frame buf "nothing left" None

let test_framebuf_bad_header () =
  let buf = P.Framebuf.create () in
  let junk = String.make 32 'x' in
  P.Framebuf.feed buf (Bytes.of_string junk) ~len:(String.length junk);
  (match P.Framebuf.next buf with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a header with no length survived");
  let buf = P.Framebuf.create () in
  let oversized = Printf.sprintf "%d\nx" (P.max_frame + 1) in
  P.Framebuf.feed buf (Bytes.of_string oversized) ~len:(String.length oversized);
  match P.Framebuf.next buf with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an oversized frame length survived"

(* ------------------------------------------------------------------ *)
(* LRU cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Serve.Cache.create ~capacity:2 in
  Serve.Cache.add c "a" (payload ~label:"a" ());
  Serve.Cache.add c "b" (payload ~label:"b" ());
  (* Touch "a" so "b" is the least recently used entry. *)
  (match Serve.Cache.find c "a" with
  | Some p -> Alcotest.(check string) "hit returns the stored payload" "a" p.P.label
  | None -> Alcotest.fail "cached entry lost");
  Serve.Cache.add c "c" (payload ~label:"c" ());
  Alcotest.(check int) "capacity bound holds" 2 (Serve.Cache.length c);
  Alcotest.(check bool) "LRU entry evicted" true (Serve.Cache.find c "b" = None);
  Alcotest.(check bool) "recently used entry kept" true (Serve.Cache.find c "a" <> None);
  Alcotest.(check bool) "new entry present" true (Serve.Cache.find c "c" <> None);
  match Serve.Cache.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

(* ------------------------------------------------------------------ *)
(* Live daemons                                                       *)
(* ------------------------------------------------------------------ *)

let start_server ?(cache = 32) ?(max_queue = 16) path =
  let cfg =
    {
      (Serve.Server.default_config ~socket_path:path) with
      Serve.Server.cache_capacity = cache;
      max_queue;
      jobs = 2;
    }
  in
  Domain.spawn (fun () -> Serve.Server.run cfg)

let connect_retry path =
  let rec go tries =
    match Serve.Client.connect path with
    | Ok c -> c
    | Error e ->
      if tries = 0 then Alcotest.failf "connect %s: %s" path e
      else begin
        Unix.sleepf 0.01;
        go (tries - 1)
      end
  in
  go 300

let get_stats c ~id =
  match Serve.Client.stats c ~id with
  | Ok s -> s
  | Error e -> Alcotest.failf "stats: %s" e

let clean_shutdown c ~id srv =
  (match Serve.Client.shutdown c ~id with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown: %s" e);
  Serve.Client.close c;
  Domain.join srv

(* Eight identical pipelined requests must cost exactly one simulation:
   whichever requests the reader admits before the first result lands are
   deduplicated by the worker batch (or caught by its cache re-check), and
   everything after is a reader-side cache hit. *)
let test_coalesce () =
  let path = "t-serve-coalesce.sock" in
  let srv = start_server path in
  let c = connect_retry path in
  let scn = slow_sc ~iters:600 () in
  let n = 8 in
  for i = 1 to n do
    Serve.Client.send c { P.req_id = i; req_op = P.Run scn }
  done;
  let cached = ref 0 in
  for _ = 1 to n do
    match Serve.Client.recv c with
    | Ok (P.Ok_resp { body = P.Run_result _; cached = hit; _ }) -> if hit then incr cached
    | Ok _ -> Alcotest.fail "unexpected response to a run request"
    | Error e -> Alcotest.failf "recv: %s" e
  done;
  let st = get_stats c ~id:99 in
  Alcotest.(check int) "one simulation for eight identical requests" 1 st.P.simulations;
  Alcotest.(check int) "every request but the first was a hit" (n - 1) !cached;
  Alcotest.(check int) "no admission rejections" 0 st.P.overloads;
  Alcotest.(check int) "no errors" 0 st.P.errors;
  Alcotest.(check int) "one cache entry" 1 st.P.cache_entries;
  clean_shutdown c ~id:100 srv

(* With an admission bound of one, distinct requests pipelined behind a
   slow run must be refused with a structured overload response — and the
   daemon must keep serving afterwards. *)
let test_overload () =
  let path = "t-serve-overload.sock" in
  let srv = start_server ~max_queue:1 path in
  let c = connect_retry path in
  Serve.Client.send c { P.req_id = 1; req_op = P.Run (slow_sc ()) };
  let extra = 4 in
  for i = 2 to 1 + extra do
    Serve.Client.send c { P.req_id = i; req_op = P.Run (sc ~iters:(10 + i) ()) }
  done;
  let overloads = ref 0 and oks = ref 0 in
  for _ = 1 to 1 + extra do
    match Serve.Client.recv c with
    | Ok (P.Overload_resp _) -> incr overloads
    | Ok (P.Ok_resp { body = P.Run_result _; _ }) -> incr oks
    | Ok _ -> Alcotest.fail "unexpected response"
    | Error e -> Alcotest.failf "recv: %s" e
  done;
  Alcotest.(check bool) "admission control refused at least one run" true (!overloads >= 1);
  Alcotest.(check bool) "the slow run itself completed" true (!oks >= 1);
  let st = get_stats c ~id:50 in
  Alcotest.(check int) "stats count the rejections" !overloads st.P.overloads;
  (* The daemon still serves after refusing; an overload means "retry
     later", and the in-flight count may lag the last response by a
     moment, so retry a few times. *)
  let rec poke tries id =
    match Serve.Client.run c ~id (sc ~iters:9 ()) with
    | Ok (P.Ok_resp { body = P.Run_result _; _ }) -> ()
    | Ok (P.Overload_resp _) when tries > 0 ->
      Unix.sleepf 0.01;
      poke (tries - 1) (id + 1)
    | _ -> Alcotest.fail "daemon wedged after refusing work"
  in
  poke 100 51;
  clean_shutdown c ~id:200 srv

(* Malformed payloads get an error response on the same connection; the
   connection and the daemon both stay usable. *)
let test_malformed () =
  let path = "t-serve-malformed.sock" in
  let srv = start_server path in
  (* Wait for the socket with the real client, then speak raw frames. *)
  let probe = connect_retry path in
  Serve.Client.close probe;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let buf = P.Framebuf.create () in
  let recv_response () =
    match P.read_frame fd buf with
    | Error e -> Alcotest.failf "read: %s" e
    | Ok payload -> (
      match J.of_string payload with
      | Error e -> Alcotest.failf "response is not JSON: %s" e
      | Ok j -> (
        match P.response_of_json j with
        | Ok r -> r
        | Error e -> Alcotest.failf "bad response: %s" e))
  in
  P.write_frame fd "this is not json";
  (match recv_response () with
  | P.Error_resp _ -> ()
  | _ -> Alcotest.fail "garbage payload was not answered with an error");
  P.write_frame fd "{\"id\":42}";
  (match recv_response () with
  | P.Error_resp { id = 42; _ } -> ()
  | _ -> Alcotest.fail "op-less request did not echo its id in the error");
  P.write_frame fd (J.to_string ~indent:0 (P.request_to_json { P.req_id = 2; req_op = P.Stats }));
  (match recv_response () with
  | P.Ok_resp { body = P.Stats_result st; _ } ->
    Alcotest.(check int) "both bad frames counted" 2 st.P.errors
  | _ -> Alcotest.fail "daemon died after malformed input");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* A framing violation (not even a length header) costs that connection
     only. *)
  let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd2 (Unix.ADDR_UNIX path);
  ignore (Unix.write_substring fd2 (String.make 32 'x') 0 32);
  (match P.read_frame fd2 (P.Framebuf.create ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "framing violation produced a response");
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  let c = connect_retry path in
  (match Serve.Client.run c ~id:3 (sc ()) with
  | Ok (P.Ok_resp { body = P.Run_result _; _ }) -> ()
  | _ -> Alcotest.fail "daemon unusable after a framing violation");
  clean_shutdown c ~id:4 srv

(* A client killed mid-request must not poison the daemon, and the socket
   path must be bindable again after shutdown. *)
let test_kill_mid_request () =
  let path = "t-serve-kill.sock" in
  let srv = start_server path in
  let c = connect_retry path in
  Serve.Client.send c { P.req_id = 1; req_op = P.Run (slow_sc ~iters:1500 ()) };
  (* Abrupt death: the response will land on a closed socket. *)
  Serve.Client.close c;
  let c2 = connect_retry path in
  (match Serve.Client.run c2 ~id:2 (sc ()) with
  | Ok (P.Ok_resp { body = P.Run_result _; _ }) -> ()
  | _ -> Alcotest.fail "daemon died with its client");
  clean_shutdown c2 ~id:3 srv;
  (* Same path, fresh daemon: bind must succeed and the daemon must serve. *)
  let srv2 = start_server path in
  let c3 = connect_retry path in
  let st = get_stats c3 ~id:1 in
  Alcotest.(check int) "fresh daemon starts from zero" 0 st.P.simulations;
  clean_shutdown c3 ~id:2 srv2

(* An infeasible geometry is refused with the stencil library's own reason,
   not reported as a failed simulation. *)
let test_infeasible_geometry () =
  let bad =
    Scenario.make ~gpus:8
      (Scenario.Stencil { variant = "cpu-free"; dims = "2d:64x9"; iters = 1; no_compute = false })
  in
  match Serve.Exec.run bad with
  | Ok _ -> Alcotest.fail "infeasible geometry accepted"
  | Error e ->
    Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"at least two" e);
    Alcotest.(check bool) "not a simulation failure" false
      (Astring.String.is_prefix ~affix:"simulation failed" e)

(* The three scenarios that used to slip past validation: a DaCe size the
   GPU count cannot split (an uncaught exception), a zero iteration count
   (ran and succeeded) and a kill of a GPU the machine does not have (ran
   and killed nothing). Each is refused with its reason, before any
   simulation. *)
let test_invalid_scenarios_refused () =
  let refused what affix scenario =
    match Serve.Exec.run scenario with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": " ^ e) true (Astring.String.is_infix ~affix e);
      Alcotest.(check bool) (what ^ " is not a simulation failure") false
        (Astring.String.is_prefix ~affix:"simulation failed" e)
  in
  refused "indivisible dace size" "must divide evenly"
    (Scenario.make ~gpus:8
       (Scenario.Dace
          { app = "jacobi1d"; arm = "cpu-free"; size = 1001; iters = 2; specialize_tb = false }));
  refused "zero iterations" "iters must be positive" (sc ~iters:0 ());
  let kill99 =
    match Cpufree_fault.Fault.of_string "kill=99@1" with Ok f -> f | Error e -> failwith e
  in
  refused "kill of a missing GPU" "no such GPU" { (sc ()) with Scenario.faults = Some kill99 };
  let unknown_link =
    match Cpufree_fault.Fault.of_string "linkfail=nowhere-gpu0@1" with
    | Ok f -> f
    | Error e -> failwith e
  in
  refused "linkfail on a missing vertex" "no vertex"
    { (sc ()) with Scenario.faults = Some unknown_link };
  (match
     Scenario.of_string "stencil variant=cpu-free dims=2d:64x64 iters=2 gpus=2 faults=kill=99@1"
   with
  | Ok _ -> Alcotest.fail "of_string accepted kill=99 on 2 GPUs"
  | Error e -> Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"no such GPU" e));
  match Scenario.of_string "stencil variant=cpu-free dims=2d:64x64 iters=2 gpus=2 pdes=optimistic" with
  | Ok _ -> Alcotest.fail "pdes=optimistic accepted"
  | Error e -> Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"valid modes" e)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "digest ignores pdes, keys on the rest" `Quick
            test_digest_pdes_invariant;
          Alcotest.test_case "infeasible geometry is refused with its reason" `Quick
            test_infeasible_geometry;
          Alcotest.test_case "invalid scenarios are refused with their reason" `Quick
            test_invalid_scenarios_refused;
        ] );
      ( "framing",
        [
          Alcotest.test_case "byte-at-a-time reassembly" `Quick test_framebuf_split;
          Alcotest.test_case "two frames in one read" `Quick test_framebuf_batched;
          Alcotest.test_case "bad and oversized headers rejected" `Quick test_framebuf_bad_header;
        ] );
      ("cache", [ Alcotest.test_case "LRU eviction order" `Quick test_cache_lru ]);
      ( "daemon",
        [
          Alcotest.test_case "identical requests coalesce to one simulation" `Quick test_coalesce;
          Alcotest.test_case "overload is a structured rejection" `Quick test_overload;
          Alcotest.test_case "malformed input is isolated" `Quick test_malformed;
          Alcotest.test_case "client death mid-request, socket reusable" `Quick
            test_kill_mid_request;
        ] );
    ]
