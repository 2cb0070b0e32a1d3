(* serve-mixed: a closed loop of two connections, driven from one thread,
   each with one request outstanding, against a [cpufree_run serve] daemon
   at its default configuration.

   [Client.recv] blocks, so the two connections are read in the order their
   requests were sent: a response that arrives early waits for the other
   connection's. Latency is measured from send to the end of [recv]. *)

module Client = Cpufree_serve.Client
module P = Cpufree_serve.Protocol
module Sc = Cpufree_core.Scenario
module J = Cpufree_core.Json

let stream_length = 100_000

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let kill_live () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid : int * Unix.process_status) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_live

let start_daemon ~exe ~dir =
  let socket = Filename.concat dir "serve.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid = Unix.create_process exe [| exe; "serve"; "--socket"; socket |] Unix.stdin log log in
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = Host.now () +. 60.0 in
  let rec connect () =
    match Client.connect socket with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up (see its log)");
      if Host.now () > deadline then failwith ("daemon did not come up: " ^ e);
      Unix.sleepf 0.005;
      connect ()
  in
  (d, connect, connect ())

let stop_daemon d conn =
  (match Client.shutdown conn ~id:0 with Ok () -> () | Error e -> failwith ("shutdown: " ^ e));
  Client.close conn;
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  live := List.filter (fun x -> x.pid <> d.pid) !live

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : (float * float) list;  (** (send time, host seconds) *)
  mutable hit_latencies : float list;
  mutable miss_latencies : float list;
  mutable segments : (float * float) list;  (** (start, wall) of each stretch of driving *)
  mutable events : int;  (** engine events of the requests that simulated *)
  mutable remisses : int;
  mutable hashes : (int * string) list;  (** (stream position, output hash) of the first requests *)
  mutable sampled_hit : (Sc.t * P.run_payload) option;
  mutable errors : string list;
}

let new_tally () =
  {
    attempted = 0; failed = 0; latencies = []; hit_latencies = []; miss_latencies = []; segments = []; events = 0;
    remisses = 0; hashes = []; sampled_hit = None; errors = [];
  }

type setup = {
  inputs : Gen.serve;
  scenarios : Sc.t array;
  daemon : daemon;
  conns : Client.t array;
  served : (string, unit) Hashtbl.t;  (** digests answered so far *)
}

let digest_rounds = 1000
let rss_requests = 5000

(* The output digest of the first [digest_rounds] timed requests, in stream
   order (responses can arrive out of it). *)
let output_digest t =
  if List.length t.hashes < digest_rounds then None
  else Some (Check.round_digest (List.map snd (List.sort compare t.hashes)))

(* The in-process replay of an artifact request, timing the exporters the
   daemon runs, and checking they give the daemon's bytes. *)
let replay_artifacts sc (p : P.run_payload) =
  let env, run =
    match sc.Sc.workload with
    | Sc.Stencil _ ->
      let h = Ops.ok_or_fail (Cpufree_stencil.Harness.of_scenario sc) in
      (Cpufree_stencil.Harness.scenario_sim_env h, fun () -> ignore (Cpufree_stencil.Harness.run_scenario_traced h))
    | Sc.Dace _ ->
      let d = Ops.ok_or_fail (Cpufree_dace.Pipeline.of_scenario sc) in
      (d.Cpufree_dace.Pipeline.sc_env, fun () -> ignore (Cpufree_dace.Pipeline.run_scenario_traced d))
  in
  run ();
  let trace =
    Spans.with_span "obs.perfetto" (fun () ->
        Cpufree_obs.Perfetto.to_json_string ?metrics:env.Cpufree_obs.Sim_env.metrics
          (Option.get env.Cpufree_obs.Sim_env.trace))
  in
  let metrics =
    Spans.with_span "obs.metrics_json" (fun () ->
        let doc = Cpufree_core.Metrics_json.to_json (Option.get env.Cpufree_obs.Sim_env.metrics) in
        Ops.ok_or_fail (Cpufree_core.Metrics_json.validate doc);
        J.to_string ~indent:2 doc ^ "\n")
  in
  if Some trace <> p.P.trace || Some metrics <> p.P.metrics then
    failwith "in-process artifacts differ from the daemon's"

let protocol_roundtrip resp =
  Spans.with_span "serve.protocol" (fun () ->
      match P.response_of_json (Ops.ok_or_fail (J.of_string (J.to_string ~indent:0 (P.response_to_json resp)))) with
      | Ok r when r = resp -> ()
      | _ -> failwith "protocol round trip changed a response")

(* Drive both connections until [continue] says stop, then drain.

   The daemon writes a response frame under one lock for all connections,
   and [Client.recv] blocks on one connection, so a multi-megabyte artifact
   response to one connection, written while this thread waits on the
   other, would block both ends. An artifact request therefore goes out
   only when nothing else is outstanding, and nothing else goes out while
   it is; every other response is far smaller than a socket buffer. *)
let drive s table t ~from ~continue ~traced ~hashes_below =
  let pos = ref from in
  let next_id = ref (from + 1) in
  let pending = Array.make 2 None in
  let replayed = Hashtbl.create 16 in
  let is_artifact i = fst s.inputs.Gen.pool.(i) = Gen.Artifacts in
  let artifact_outstanding () =
    Array.exists (function Some (_, p, _) -> is_artifact s.inputs.Gen.stream.(p) | None -> false) pending
  in
  let try_send k =
    if pending.(k) = None && continue !pos && !pos < Array.length s.inputs.Gen.stream then begin
      let i = s.inputs.Gen.stream.(!pos) in
      let other_busy = pending.(1 - k) <> None in
      if not (artifact_outstanding () || (is_artifact i && other_busy)) then begin
        let id = !next_id in
        incr next_id;
        Client.send s.conns.(k) { P.req_id = id; req_op = P.Run s.scenarios.(i) };
        pending.(k) <- Some (id, !pos, Host.now ());
        incr pos
      end
    end
  in
  let fail msg =
    t.failed <- t.failed + 1;
    if List.length t.errors < 5 then t.errors <- msg :: t.errors
  in
  let handle ~id ~at ~sent ~latency = function
    | Error e -> failwith ("connection lost: " ^ e)
    | Ok resp -> (
      t.attempted <- t.attempted + 1;
      if traced then protocol_roundtrip resp;
      let i = s.inputs.Gen.stream.(at) in
      let line = snd s.inputs.Gen.pool.(i) in
      match resp with
      | P.Ok_resp { id = rid; cached; digest; body = P.Run_result p } when rid = id -> (
        let output = Check.md5 (Check.payload_fields p) in
        if at < hashes_below then t.hashes <- (at, output) :: t.hashes;
        match Check.verify table ~key:line ~output with
        | Error e -> fail e
        | Ok events ->
          t.latencies <- (sent, latency) :: t.latencies;
          let dg = Option.value ~default:"" digest in
          if cached then begin
            t.hit_latencies <- latency :: t.hit_latencies;
            if t.sampled_hit = None then t.sampled_hit <- Some (s.scenarios.(i), p)
          end
          else begin
            t.miss_latencies <- latency :: t.miss_latencies;
            t.events <- t.events + events;
            if Hashtbl.mem s.served dg then t.remisses <- t.remisses + 1
          end;
          Hashtbl.replace s.served dg ();
          (match p.P.chaos with
          | Some c ->
            Spans.add "fault.dropped" (float_of_int c.P.dropped);
            Spans.add "fault.resent" (float_of_int c.P.resent);
            Spans.add "fault.retried" (float_of_int c.P.retried)
          | None -> ());
          match p.P.trace with
          | Some tr when traced ->
            Spans.add "obs.artifact_bytes"
              (float_of_int (String.length tr + String.length (Option.value ~default:"" p.P.metrics)));
            Ops.ok_or_fail (Spans.with_span "obs.trace_validate" (fun () -> Cpufree_core.Trace_json.validate_string tr));
            if not (Hashtbl.mem replayed line) then begin
              Hashtbl.replace replayed line ();
              replay_artifacts s.scenarios.(i) p
            end
          | _ -> ())
      | P.Ok_resp _ -> fail ("unexpected response to " ^ line)
      | P.Error_resp { message; _ } -> fail ("error response: " ^ message)
      | P.Overload_resp _ -> fail "overload response")
  in
  let start = Host.now () in
  let rec loop () =
    for k = 0 to 1 do
      try_send k
    done;
    if Array.exists Option.is_some pending then begin
      for k = 0 to 1 do
        match pending.(k) with
        | None -> ()
        | Some (id, at, t0) ->
          let r = Spans.with_span "serve.request" (fun () -> Client.recv s.conns.(k)) in
          let latency = Host.now () -. t0 in
          pending.(k) <- None;
          handle ~id ~at ~sent:t0 ~latency r;
          try_send k
      done;
      loop ()
    end
  in
  loop ();
  t.segments <- (start, Host.now () -. start) :: t.segments;
  !pos

let setup ~seed ~exe ~dir table =
  let inputs = Gen.serve ~seed ~length:stream_length in
  let scenarios =
    Array.map
      (fun (_, l) ->
        let sc = Ops.ok_or_fail (Sc.of_string l) in
        Ops.ok_or_fail (Sc.validate sc);
        sc)
      inputs.Gen.pool
  in
  let daemon, connect, c0 = start_daemon ~exe ~dir in
  let s = { inputs; scenarios; daemon; conns = [| c0; connect () |]; served = Hashtbl.create 256 } in
  let warm = new_tally () in
  let stop = drive s table warm ~from:0 ~continue:(fun pos -> pos < inputs.Gen.warmup) ~traced:false ~hashes_below:0 in
  if warm.failed > 0 then failwith ("warm-up failed: " ^ String.concat "; " warm.errors);
  (s, stop)

let teardown s =
  Client.close s.conns.(1);
  stop_daemon s.daemon s.conns.(0)

let stats s =
  match Client.stats s.conns.(0) ~id:0 with Ok st -> st | Error e -> failwith ("stats: " ^ e)
