module E = Cpufree_engine
module Trace = E.Trace
module Time = E.Time

(* This module depends only on the engine layer (it sits below
   [cpufree_core]), so it renders JSON with its own tiny emitter instead of
   [Cpufree_core.Json]. The schema validators in [cpufree_core] parse the
   result back and check it structurally. *)

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

(* "gpu<N>..." lanes belong to device pid N+1; host threads, the fabric
   and every other lane belong to pid 0. *)
let pid_of_lane lane =
  let len = String.length lane in
  if len > 3 && String.sub lane 0 3 = "gpu" && lane.[3] >= '0' && lane.[3] <= '9' then begin
    let i = ref 3 and n = ref 0 in
    while !i < len && lane.[!i] >= '0' && lane.[!i] <= '9' do
      n := (!n * 10) + (Char.code lane.[!i] - Char.code '0');
      incr i
    done;
    !n + 1
  end
  else 0

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
             | Trace.Idle -> "idle"
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

let write ?metrics oc trace =
  output_string oc (to_json_string ?metrics trace);
  output_char oc '\n'
