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

(* Through the bytes a client writes and the daemon parses. *)
let roundtrip_request req =
  match J.of_string (J.to_string ~indent:0 (P.request_to_json req)) with
  | Error e -> Alcotest.failf "request is not JSON: %s" e
  | Ok j -> (
    match P.request_of_json j with
    | Ok r -> r
    | Error e -> Alcotest.failf "request did not round-trip: %s" e)

let test_request_roundtrip () =
  (match roundtrip_request { P.req_id = 7; req_op = P.Run (sc ()) } with
  | { P.req_id = 7; req_op = P.Run s } ->
    Alcotest.(check bool) "scenario survives the wire" true (s = sc ())
  | _ -> Alcotest.fail "run op lost");
  (* Every kind of scenario: faults, DaCe, both archs, artifacts. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"generated run requests round-trip" ~count:200
       (QCheck.pair QCheck.small_nat Scenario_gen.arbitrary_scenario) (fun (id, s) ->
         let req = { P.req_id = id; req_op = P.Run s } in
         roundtrip_request req = req));
  (match roundtrip_request { P.req_id = 1; req_op = P.Stats } with
  | { P.req_op = P.Stats; _ } -> ()
  | _ -> Alcotest.fail "stats op lost");
  match roundtrip_request { P.req_id = 2; req_op = P.Shutdown } with
  | { P.req_op = P.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "shutdown op lost"

(* Request text as a client writes it, then damaged: the scenario value
   swapped for a non-string or a broken line, or the bytes themselves
   flipped, cut or spliced. *)
let gen_mutated_request =
  let open QCheck.Gen in
  let* sc = QCheck.gen Scenario_gen.arbitrary_scenario in
  let line = Scenario.to_string sc in
  let* value =
    oneof
      [
        return (J.String line);
        oneofl [ J.Null; J.Int 3; J.Bool true; J.List [ J.String line ]; J.Obj [] ];
        map (fun n -> J.String (String.sub line 0 (min n (String.length line))))
          (int_bound (String.length line));
        map (fun tok -> J.String (line ^ " " ^ tok))
          (oneofl [ "iters=x"; "gpus=-1"; "bogus=1"; "nokey"; "iters=99999999999999999999"; "=" ]);
        map (fun s -> J.String s) (string_size ~gen:printable (int_bound 40));
      ]
  in
  let text =
    J.to_string ~indent:0
      (J.Obj [ ("id", J.Int 4); ("op", J.String "run"); ("scenario", value) ])
  in
  let n = String.length text in
  let* i = int_bound (n - 1) and* j = int_bound (n - 1) and* junk = string_size (int_bound 4) in
  let lo = min i j and hi = max i j in
  oneofl
    [
      text;
      String.sub text 0 lo;
      String.sub text 0 lo ^ junk ^ String.sub text hi (n - hi);
      String.sub text 0 lo ^ junk ^ String.sub text lo (n - lo);
    ]

let request_totality_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"request_of_json is total on mutated request text" ~count:500
       (QCheck.make ~print:String.escaped gen_mutated_request) (fun text ->
         match J.of_string text with
         | Error _ -> true
         | Ok j -> (
           match P.request_of_json j with
           | Ok { P.req_op = P.Run _; _ } -> (
             match J.member "scenario" j with Some (J.String _) -> true | _ -> false)
           | Ok _ | Error _ -> true)))

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

(* ------------------------------------------------------------------ *)
(* Response frames                                                    *)
(* ------------------------------------------------------------------ *)

(* Bytes a JSON string would have to escape, and bytes that are not
   UTF-8. *)
let gen_bytes =
  let open QCheck.Gen in
  string_size
    ~gen:(frequency [ (4, char); (1, oneofl [ '"'; '\\'; '\000'; '\n'; '\xff'; '\xc3' ]) ])
    (frequency [ (6, int_bound 40); (1, int_bound 3000) ])

let gen_response =
  let open QCheck.Gen in
  let* id = small_nat and* kind = int_bound 4 in
  match kind with
  | 0 ->
    let* label = gen_bytes
    and* cached = bool
    and* digest = opt gen_bytes
    and* overlap = float_bound_inclusive 1.0
    and* chaos =
      opt
        (let* completed = bool and* trigger = opt gen_bytes and* n = small_nat in
         return
           { P.completed; trigger; dropped = n; delayed = n + 1; resent = n + 2; retried = n + 3 })
    and* metrics = opt gen_bytes
    and* trace = opt gen_bytes in
    return
      (P.Ok_resp
         {
           id;
           cached;
           digest;
           body = P.Run_result { (payload ~label ?chaos ?metrics ?trace ()) with P.overlap };
         })
  | 1 ->
    let* n = small_nat in
    return
      (P.Ok_resp
         {
           id;
           cached = false;
           digest = None;
           body =
             P.Stats_result
               {
                 P.requests = n;
                 hits = n + 1;
                 misses = n + 2;
                 coalesced = n + 3;
                 overloads = n + 4;
                 errors = n + 5;
                 simulations = n + 6;
                 cache_entries = n + 7;
               };
         })
  | 2 -> return (P.Ok_resp { id; cached = false; digest = None; body = P.Shutdown_ack })
  | 3 -> map (fun message -> P.Error_resp { id; message }) gen_bytes
  | _ -> return (P.Overload_resp { id })

let frame_of r = String.concat "" (P.response_to_frame r)

(* The payload with its header rewritten by [edit]. *)
let reheader frame edit =
  let nl = String.index frame '\n' in
  let hlen = int_of_string (String.sub frame 0 nl) in
  let header =
    J.to_string ~indent:0 (edit (Result.get_ok (J.of_string (String.sub frame (nl + 1) hlen))))
  in
  let rest = String.sub frame (nl + 1 + hlen) (String.length frame - nl - 1 - hlen) in
  Printf.sprintf "%d\n%s%s" (String.length header) header rest

(* The header with one artifact's byte length replaced by [f] of it. *)
let rec relength name f = function
  | J.Obj kvs ->
    J.Obj
      (List.map
         (function k, J.Int n when k = name -> (k, J.Int (f n)) | k, v -> (k, relength name f v))
         kvs)
  | v -> v

(* A valid payload, damaged. [true] marks a damage the decoder must reject:
   a cut, bytes appended, a header length one off, or an artifact length
   that no longer fills the payload. *)
let gen_damaged_frame =
  let open QCheck.Gen in
  let* r = gen_response in
  let frame = frame_of r in
  let n = String.length frame in
  let* cut = int_bound (n - 1)
  and* junk = string_size ~gen:char (int_range 1 8)
  and* name = oneofl [ "metrics"; "trace" ]
  and* len = oneofl [ (fun n -> n + 1); (fun n -> n - 1); (fun n -> -n - 1); (fun _ -> max_int) ]
  and* flip = int_bound (n - 1)
  and* byte = char
  and* random = string_size ~gen:char (int_bound 64) in
  let nl = String.index frame '\n' in
  let hlen = int_of_string (String.sub frame 0 nl) in
  let rehlen d = string_of_int (hlen + d) ^ String.sub frame nl (n - nl) in
  let relengthed = reheader frame (relength name len) in
  oneofl
    [
      (true, String.sub frame 0 cut);
      (true, frame ^ junk);
      (true, rehlen 1);
      (true, rehlen (-1));
      (relengthed <> reheader frame Fun.id, relengthed);
      (false, String.mapi (fun i c -> if i = flip then byte else c) frame);
      (false, random);
      (false, string_of_int (String.length random) ^ "\n" ^ random);
    ]

let frame_laws =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"response_of_frame inverts response_to_frame" ~count:500
         (QCheck.make ~print:(fun r -> String.escaped (frame_of r)) gen_response) (fun r ->
           let parts = P.response_to_frame r in
           (* The artifacts are the payload's own strings, not copies. *)
           let uncopied =
             match r with
             | P.Ok_resp { body = P.Run_result p; _ } ->
               List.for_all2 ( == ) (List.tl parts)
                 (List.filter_map Fun.id [ p.P.metrics; p.P.trace ])
             | _ -> List.length parts = 1
           in
           uncopied && P.response_of_frame (String.concat "" parts) = Ok r));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"response_of_frame is total on damaged frames" ~count:1000
         (QCheck.make ~print:(fun (_, f) -> String.escaped f) gen_damaged_frame)
         (fun (must_fail, frame) ->
           match P.response_of_frame frame with Error _ -> true | Ok _ -> not must_fail));
  ]

let test_digest_keys () =
  let base = sc () in
  Alcotest.(check string) "equal scenarios share the cache key" (Scenario.digest base)
    (Scenario.digest (sc ()));
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

(* Request bodies written exactly as README's Protocol paragraph shows
   them. *)
let raw_stats = {|{"id":1,"op":"stats"}|}

let raw_run =
  {|{"id":1,"op":"run","scenario":"stencil variant=cpu-free dims=2d:512x512 iters=30 gpus=4"}|}

let test_framebuf_split () =
  let reassemble body =
    let buf = P.Framebuf.create () in
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
    expect_frame buf "buffer drained" None;
    match Result.bind (J.of_string body) P.request_of_json with
    | Ok req -> req
    | Error e -> Alcotest.failf "documented request rejected: %s" e
  in
  (match reassemble raw_stats with
  | { P.req_id = 1; req_op = P.Stats } -> ()
  | _ -> Alcotest.fail "stats body misread");
  match reassemble raw_run with
  | { P.req_id = 1; req_op = P.Run s } ->
    Alcotest.(check string) "the documented run body carries the scenario line"
      "stencil variant=cpu-free dims=2d:512x512 iters=30 no-compute=false arch=a100 \
       topology=hgx gpus=4 faults=none fault-seed=1 pdes=default trace=off metrics=off"
      (Scenario.to_string s)
  | _ -> Alcotest.fail "run body misread"

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


(* Every frame and the first error [next] yields until it needs more bytes. *)
let drain buf =
  let rec go acc =
    match P.Framebuf.next buf with
    | Ok (Some f) -> go (Ok f :: acc)
    | Ok None -> List.rev acc
    | Error e -> List.rev (Error e :: acc)
  in
  go []

(* Frames, then a tail that may be a partial frame or garbage, cut at
   random points. *)
let gen_stream =
  let open QCheck.Gen in
  let payload =
    frequency [ (8, int_bound 300); (1, int_bound 12_000) ] >>= fun n ->
    string_size ~gen:(oneof [ printable; oneofl [ '\n'; '\000'; '{' ] ]) (return n)
  in
  let frame = map (fun p -> Printf.sprintf "%d\n%s" (String.length p) p) payload in
  let* frames = list_size (int_bound 5) frame in
  let* tail =
    oneofl
      [
        "";
        "12";
        "x\n";
        String.make 30 'x';
        String.make 30 'x' ^ "\n";
        String.make 23 ' ' ^ "7\nabcdefg";
        String.make 24 ' ' ^ "7\nabcdefg";
        "99999999999\n";
        " 3 \nabc";
        "-1\n";
        "5\nab";
      ]
  in
  let stream = String.concat "" frames ^ tail in
  let* cuts = list_size (int_bound 8) (int_bound (String.length stream)) in
  return (stream, List.sort_uniq compare cuts)

let chunks (stream, cuts) =
  let rec go = function
    | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: go rest
    | _ -> []
  in
  go ((0 :: cuts) @ [ String.length stream ])

let framing_laws =
  let whole stream =
    let buf = P.Framebuf.create () in
    P.Framebuf.feed buf (Bytes.of_string stream) ~len:(String.length stream);
    drain buf
  in
  let arb = QCheck.make ~print:(fun (s, _) -> String.escaped s) gen_stream in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"split points move no frame and no error" ~count:300 arb
         (fun ((stream, _) as cut) ->
           let buf = P.Framebuf.create () in
           let rec feed acc = function
             | [] -> acc
             | c :: rest ->
               P.Framebuf.feed buf (Bytes.of_string c) ~len:(String.length c);
               let acc = acc @ drain buf in
               if List.exists Result.is_error acc then acc else feed acc rest
           in
           feed [] (chunks cut) = whole stream));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"read_frame yields what the buffer does, then EOF" ~count:100 arb
         (fun ((stream, _) as cut) ->
           let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           List.iter
             (fun c -> ignore (Unix.write_substring w c 0 (String.length c) : int))
             (chunks cut);
           Unix.close w;
           let buf = P.Framebuf.create () in
           let rec read acc =
             match P.read_frame r buf with
             | Ok f -> read (Ok f :: acc)
             | Error e -> List.rev (Error e :: acc)
           in
           let got = read [] in
           Unix.close r;
           let expected = whole stream in
           let closed =
             if List.exists Result.is_error expected then [] else [ Error "connection closed" ]
           in
           got = expected @ closed));
  ]

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

(* Distinct pipelined requests are all misses: those admitted while the
   first one simulates reach the worker as one batch of several misses,
   which it runs over the pool ([jobs = 2]). Every request gets exactly
   one result, and each distinct scenario is simulated once and cached as
   far as the capacity allows. With a cache of one, a batch-mate's result
   evicts the others' before they are answered: they must still be
   answered from the batch's own runs. *)
let test_distinct_misses ~cache =
  let path = Printf.sprintf "t-serve-distinct-%d.sock" cache in
  let srv = start_server ~cache path in
  let c = connect_retry path in
  let n = 4 in
  for i = 1 to n do
    Serve.Client.send c { P.req_id = i; req_op = P.Run (slow_sc ~iters:(600 + i) ()) }
  done;
  let answered = Array.make (n + 1) 0 in
  for _ = 1 to n do
    match Serve.Client.recv c with
    | Ok (P.Ok_resp { id; body = P.Run_result _; _ }) when id >= 1 && id <= n ->
      answered.(id) <- answered.(id) + 1
    | Ok (P.Error_resp { id; message }) -> Alcotest.failf "request %d: %s" id message
    | Ok _ -> Alcotest.fail "unexpected response to a run request"
    | Error e -> Alcotest.failf "recv: %s" e
  done;
  for i = 1 to n do
    Alcotest.(check int) (Printf.sprintf "request %d answered once" i) 1 answered.(i)
  done;
  let st = get_stats c ~id:99 in
  Alcotest.(check int) "one simulation per distinct scenario" n st.P.simulations;
  Alcotest.(check int) "one cache entry per distinct scenario, up to the capacity" (min n cache)
    st.P.cache_entries;
  Alcotest.(check int) "no errors" 0 st.P.errors;
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
    match Result.bind (P.read_frame fd buf) P.response_of_frame with
    | Ok r -> r
    | Error e -> Alcotest.failf "bad response: %s" e
  in
  P.write_frame fd [ "this is not json" ];
  (match recv_response () with
  | P.Error_resp _ -> ()
  | _ -> Alcotest.fail "garbage payload was not answered with an error");
  P.write_frame fd [ "{\"id\":42}" ];
  (match recv_response () with
  | P.Error_resp { id = 42; _ } -> ()
  | _ -> Alcotest.fail "op-less request did not echo its id in the error");
  P.write_frame fd [ J.to_string ~indent:0 (P.request_to_json { P.req_id = 2; req_op = P.Stats }) ];
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

(* A scenario the worker rejects (a linkfail naming a vertex the machine
   does not have) is answered with an error and never simulates: it adds
   one to [errors] and leaves [simulations] where it was. *)
let test_rejected_not_simulated () =
  let path = "t-serve-rejected.sock" in
  let srv = start_server path in
  let c = connect_retry path in
  (match Serve.Client.run c ~id:1 (sc ()) with
  | Ok (P.Ok_resp { body = P.Run_result _; _ }) -> ()
  | _ -> Alcotest.fail "valid scenario did not run");
  let before = get_stats c ~id:2 in
  let unknown_link =
    match Cpufree_fault.Fault.of_string "linkfail=nowhere-gpu0@1" with
    | Ok f -> f
    | Error e -> failwith e
  in
  (match Serve.Client.run c ~id:3 { (sc ()) with Scenario.faults = Some unknown_link } with
  | Ok (P.Error_resp { id = 3; message }) ->
    Alcotest.(check bool) message true (Astring.String.is_infix ~affix:"no vertex" message)
  | _ -> Alcotest.fail "rejected scenario was not answered with an error");
  (* A variant holding a space: its line would read back as variant
     cpu-free on 8 GPUs, so the client refuses it without sending it. *)
  (match
     Serve.Client.run c ~id:6
       (Scenario.make ~gpus:2
          (Scenario.Stencil
             { variant = "cpu-free gpus=8"; dims = "2d:64x64"; iters = 6; no_compute = false }))
   with
  | Error e -> Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"whitespace" e)
  | Ok _ -> Alcotest.fail "the client sent a scenario whose line reads back as another");
  let after = get_stats c ~id:4 in
  Alcotest.(check int) "simulations unchanged" before.P.simulations after.P.simulations;
  Alcotest.(check int) "one more error" (before.P.errors + 1) after.P.errors;
  clean_shutdown c ~id:5 srv

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
  | Error e -> Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"only value is default" e)

(* ------------------------------------------------------------------ *)
(* Traced DaCe artifacts                                              *)
(* ------------------------------------------------------------------ *)

(* Span labels and lanes of a DaCe run are emitted by the executor, and
   no figure golden reads them. One traced run per app x arm, plus the
   thread-block-specialized jacobi2d, pins the md5 of its Perfetto trace
   and metrics documents, so a change to the executor that moves a span,
   a lane or a metric fails here. *)
let pinned_dace_artifacts =
  [
    ( "jacobi1d", "baseline", 4096, false,
      "f954b0deaa8aca132ad0ef8a13077c19", "8aadb5c3a41ef1f91f9b6df9a6fc2dac" );
    ( "jacobi1d", "cpu-free", 4096, false,
      "a1c51065bd30187f4e4bbd6c50ee6cb4", "60eb7b2e3eec070d5d744a3ce7fee82f" );
    ( "jacobi2d", "baseline", 64, false,
      "1545aade1feea7b0fc228051a1c48d3a", "1ee4bacd581bf1cf91a4d7a2b88403b7" );
    ( "jacobi2d", "cpu-free", 64, false,
      "4973b36a1280182417d0a58b32694690", "5f120d52055301e9d530519c1abe1ad6" );
    ( "jacobi2d", "cpu-free", 64, true,
      "aafa79a1342449af487b0f95b86cc147", "6ccdf422462546e6fdce92f454cf57ee" );
    ( "heat3d", "baseline", 16, false,
      "568bd3480a9f468315be8c5b7d7a011f", "fbc76957e2673ccc9302855642b18186" );
    ( "heat3d", "cpu-free", 16, false,
      "b4af957748d91e15633b579c0f8c267d", "23d3c0eb2c50615d60030f982ff5b8dc" );
  ]

let test_dace_artifacts_pinned () =
  List.iter
    (fun (app, arm, size, specialize_tb, trace_md5, metrics_md5) ->
      let what =
        Printf.sprintf "%s/%s%s" app arm (if specialize_tb then "/specialize-tb" else "")
      in
      let scenario =
        Scenario.make ~gpus:4 ~trace:true ~metrics:true
          (Scenario.Dace { app; arm; size; iters = 5; specialize_tb })
      in
      match Serve.Exec.run scenario with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok { P.trace = Some trace; metrics = Some metrics; _ } ->
        let md5 s = Digest.to_hex (Digest.string s) in
        Alcotest.(check string) (what ^ " trace") trace_md5 (md5 trace);
        Alcotest.(check string) (what ^ " metrics") metrics_md5 (md5 metrics)
      | Ok _ -> Alcotest.failf "%s: an artifact is missing" what)
    pinned_dace_artifacts

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          request_totality_law;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
        ]
        @ frame_laws
        @ [
          Alcotest.test_case "digest keys on the workload and the artifacts" `Quick
            test_digest_keys;
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
        ]
        @ framing_laws );
      ("cache", [ Alcotest.test_case "LRU eviction order" `Quick test_cache_lru ]);
      ( "traced",
        [
          Alcotest.test_case "traced DaCe artifacts are byte-pinned" `Quick
            test_dace_artifacts_pinned;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "identical requests coalesce to one simulation" `Quick test_coalesce;
          Alcotest.test_case "distinct misses of one batch run over the pool" `Quick (fun () ->
              List.iter (fun cache -> test_distinct_misses ~cache) [ 32; 1 ]);
          Alcotest.test_case "overload is a structured rejection" `Quick test_overload;
          Alcotest.test_case "malformed input is isolated" `Quick test_malformed;
          Alcotest.test_case "a rejected scenario counts as an error, not a simulation" `Quick
            test_rejected_not_simulated;
          Alcotest.test_case "client death mid-request, socket reusable" `Quick
            test_kill_mid_request;
        ] );
    ]
