module E = Cpufree_engine
module Trace = E.Trace
module Time = E.Time

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

(* Decimal digits of a non-negative int, straight into the buffer. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

(* Microseconds with three decimals: the bytes ["%.3f"] prints for
   [Time.to_us_float t]. Below 2^52 ns that float is within half an ulp,
   under 0.0005, of ns / 1000, so rounding it to three decimals gives back
   the exact quotient and remainder. *)
let add_us buf t =
  let ns = Time.to_ns t in
  if ns >= 0 && ns < 1 lsl 52 then begin
    add_int buf (ns / 1000);
    let frac = ns mod 1000 in
    Buffer.add_char buf '.';
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (frac / 100)));
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (frac / 10 mod 10)));
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (frac mod 10)))
  end
  else Buffer.add_string buf (Printf.sprintf "%.3f" (Time.to_us_float t))

let metric_track_name (it : Metrics.item) =
  match it.Metrics.labels with
  | [] -> it.Metrics.name
  | ls ->
    it.Metrics.name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let kind_name = function
  | Trace.Compute -> "compute"
  | Trace.Communication -> "communication"
  | Trace.Synchronization -> "synchronization"
  | Trace.Api -> "api"
  | Trace.Marker -> "marker"

(* Every event is written straight into one buffer. *)
let to_json_string ?metrics trace =
  let buf = Buffer.create 65536 in
  let str = Buffer.add_string buf in
  let int = add_int buf in
  let first = ref true in
  (* Open the next event: a comma after the first, the name key, and the
     escaped name, leaving its string open. *)
  let event name =
    if !first then first := false else Buffer.add_char buf ',';
    str "{\"name\":\"";
    Json_escape.add buf name
  in
  (* The pid and tid members most events end with. *)
  let ids pid tid =
    str ",\"pid\":";
    int pid;
    str ",\"tid\":";
    int tid
  in
  str "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  (* Stable tid per lane, assigned in sorted-lane order. *)
  let lanes = Trace.lanes trace in
  let lane_tid = Hashtbl.create 16 in
  List.iteri (fun i lane -> Hashtbl.replace lane_tid lane i) lanes;
  let tid lane = match Hashtbl.find_opt lane_tid lane with Some i -> i | None -> 0 in
  (* Process/thread metadata first: names for every pid and lane. *)
  let pids = List.sort_uniq Int.compare (0 :: List.map pid_of_lane lanes) in
  List.iter
    (fun pid ->
      event "process_name";
      str "\",\"ph\":\"M\",\"pid\":";
      int pid;
      str ",\"tid\":0,\"args\":{\"name\":\"";
      if pid = 0 then str "host+fabric"
      else begin
        str "gpu";
        int (pid - 1)
      end;
      str "\"}}")
    pids;
  List.iter
    (fun lane ->
      event "thread_name";
      str "\",\"ph\":\"M\",\"pid\":";
      int (pid_of_lane lane);
      str ",\"tid\":";
      int (tid lane);
      str ",\"args\":{\"name\":\"";
      Json_escape.add buf lane;
      str "\"}}")
    lanes;
  (* Spans in canonical order: monotone ts globally, hence per lane. *)
  List.iter
    (fun (s : Trace.span) ->
      event s.Trace.label;
      if s.Trace.kind = Trace.Marker && Time.equal s.Trace.t0 s.Trace.t1 then begin
        str "\",\"cat\":\"marker\",\"ph\":\"i\",\"ts\":";
        add_us buf s.Trace.t0;
        ids (pid_of_lane s.Trace.lane) (tid s.Trace.lane);
        str ",\"s\":\"t\"}"
      end
      else begin
        str "\",\"cat\":\"";
        str (kind_name s.Trace.kind);
        str "\",\"ph\":\"X\",\"ts\":";
        add_us buf s.Trace.t0;
        str ",\"dur\":";
        add_us buf (Time.sub s.Trace.t1 s.Trace.t0);
        ids (pid_of_lane s.Trace.lane) (tid s.Trace.lane);
        Buffer.add_char buf '}'
      end)
    (Trace.sorted_spans trace);
  (* Flow arrows: an "s" at the source, an "f" (binding point "enclosing
     slice") at the destination, tied by id. *)
  List.iter
    (fun (f : Trace.flow) ->
      event f.Trace.flabel;
      str "\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":";
      int f.Trace.fid;
      str ",\"ts\":";
      add_us buf f.Trace.f_src_t;
      ids (pid_of_lane f.Trace.f_src_lane) (tid f.Trace.f_src_lane);
      Buffer.add_char buf '}';
      event f.Trace.flabel;
      str "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":";
      int f.Trace.fid;
      str ",\"ts\":";
      add_us buf f.Trace.f_dst_t;
      ids (pid_of_lane f.Trace.f_dst_lane) (tid f.Trace.f_dst_lane);
      Buffer.add_char buf '}')
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
    let sample track at v =
      event track;
      str "\",\"ph\":\"C\",\"ts\":";
      add_us buf at;
      str ",\"pid\":0,\"args\":{\"value\":";
      int v;
      str "}}"
    in
    List.iter
      (fun (it : Metrics.item) ->
        (* The engine.* namespace describes the simulator, not the simulated
           machine. It stays available in metrics.json. *)
        if String.length it.Metrics.name >= 7 && String.sub it.Metrics.name 0 7 = "engine."
        then ()
        else
        let track = metric_track_name it in
        match it.Metrics.value with
        | Metrics.Counter_v v ->
          sample track lo 0;
          sample track hi v
        | Metrics.Gauge_v v -> sample track hi v
        | Metrics.Histogram_v _ -> ())
      (Metrics.items reg));
  str "]}";
  Buffer.contents buf
