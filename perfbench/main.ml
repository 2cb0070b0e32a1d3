(* The repo benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 --daemon EXE [--commit C]
     main.exe record

   Workloads: paper-figures, cluster-allreduce, serve-mixed (see
   perfbench/README.md for why each exists). With --trace 0 the last line
   of stdout is a JSON object with the end-to-end metrics; with --trace 1,
   with the per-layer metrics of a traced run. [record] rewrites
   perfbench/expected.tsv from the current model. Run from the repository
   root; perfbench/run.py builds everything first. *)

open Perfbench

let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-figures|cluster-allreduce|serve-mixed --seed N --seconds S \
     --trace 0|1 --daemon EXE [--commit C]\n       main.exe record";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* Set-up is repeated and reported as the median, so one slow start does
   not move the figure: often where it takes a millisecond, less often where
   it starts a daemon. *)
let inproc_setup_repeats = 25
let serve_setup_repeats = 9

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let json_facts facts = Cpufree_core.Json.Obj (List.map (fun (k, v) -> (k, Cpufree_core.Json.String v)) facts)

(* --- end-to-end ------------------------------------------------------------ *)

(* Host times here are already scaled by {!Calib}. *)
type e2e = {
  setup_s : float;
  ops : int;
  busy : float;  (** seconds the ops took, end to end *)
  latencies : float array;
  events : int;
  event_time : float;  (** seconds of the ops whose events are counted *)
  rss_mb : float;
  attempted : int;
  failed : int;
  extra : (string * string) list;  (** printed beside the metrics *)
}

let e2e_metrics r =
  let m = Report.m in
  [
    m "setup_s" "s" r.setup_s;
    m "throughput_per_s" "ops/s" (float_of_int r.ops /. r.busy);
    m "latency_p50_ms" "ms" (Host.percentile r.latencies 0.5 *. 1e3);
    m "latency_p90_ms" "ms" (Host.percentile r.latencies 0.9 *. 1e3);
    m "sim_events_per_s" "events/s" (if r.event_time > 0.0 then float_of_int r.events /. r.event_time else 0.0);
    m "peak_rss_mb" "MB" r.rss_mb;
  ]

(* --- in-process workloads ---------------------------------------------------- *)

let round_of ~workload ~seed =
  match workload with
  | "paper-figures" -> Gen.paper ~seed
  | _ -> Gen.cluster ~seed

let inproc_setup ~workload ~seed =
  let t0 = Host.now () in
  let round = round_of ~workload ~seed in
  Array.iter
    (fun op -> match Gen.validate_op op with Ok () -> () | Error e -> die "invalid input: %s" e)
    round;
  let table = Check.load () in
  (t0, Host.now () -. t0, round, table)

(* Set up [n] times, each bracketed by calibration slices and scaled like an
   op; the median time, and the last set-up's value ([discard] releases the
   others before the next starts). *)
let timed_setups ?(discard = ignore) n f =
  Calib.take ();
  let rec go i acc prev =
    Option.iter discard prev;
    let t0, dt, v = f () in
    Calib.take ();
    let acc = Calib.normalize ~at:t0 dt :: acc in
    if i = n then (Host.median acc, v) else go (i + 1) acc (Some v)
  in
  go 1 [] None

let inproc_e2e ~workload ~seed ~seconds =
  let setup_s, (round, table) =
    timed_setups inproc_setup_repeats (fun () ->
        let t0, dt, round, table = inproc_setup ~workload ~seed in
        (t0, dt, (round, table)))
  in
  let t = Inproc.run ~seconds table round in
  let digest = Check.round_digest (List.rev t.Inproc.round_hashes) in
  let digest_ok = Check.verify_digest table ~workload ~seed digest in
  (* Once per run: an engine-owned op's event count without a registry must
     match the count with one, which is what the recorded table holds. *)
  let events_ok =
    match
      Array.to_list round
      |> List.find_opt (function Gen.Allreduce _ -> true | Gen.Run l -> String.starts_with ~prefix:"dace" l | _ -> false)
    with
    | None -> Ok ()
    | Some op ->
      let bare = Ops.exec ~traced:false op and observed = Ops.exec ~traced:true op in
      if bare.Ops.events = observed.Ops.events && bare.Ops.fields = observed.Ops.fields then Ok ()
      else Error (Gen.key op ^ ": engine events or outputs differ with a metrics registry attached")
  in
  let gap = if workload = "paper-figures" then Inproc.paper_gap t else None in
  let extra_failures = List.filter_map (function Ok () -> None | Error e -> Some e) [ digest_ok; events_ok ] in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (t.Inproc.errors @ extra_failures);
  (match gap with
  | Some (gaps, _) ->
    List.iter (fun (label, p, mm) -> Printf.printf "  %-58s paper %6.1f%%  measured %6.1f%%\n" label p mm) gaps
  | None -> ());
  let failed = t.Inproc.failed + List.length extra_failures in
  {
      setup_s;
      ops = List.length t.Inproc.latencies;
      busy = List.fold_left (fun acc (at, dt) -> acc +. Calib.normalize ~at dt) 0.0 t.Inproc.latencies;
      latencies = Array.of_list (List.map (fun (at, dt) -> Calib.normalize ~at dt) t.Inproc.latencies);
      events = List.fold_left (fun acc (_, _, n) -> acc + n) 0 t.Inproc.event_ops;
      event_time = List.fold_left (fun acc (at, dt, _) -> acc +. Calib.normalize ~at dt) 0.0 t.Inproc.event_ops;
      rss_mb = t.Inproc.rss_mb;
      attempted = t.Inproc.attempted + List.length extra_failures;
      failed;
      extra =
        [ ("rounds", string_of_int t.Inproc.rounds); ("round_size", string_of_int (Array.length round));
          ("raw_wall_s", Printf.sprintf "%.3f" t.Inproc.wall);
          ("raw_latency_p50_ms", Printf.sprintf "%.4f" (Host.percentile (Array.of_list (List.map snd t.Inproc.latencies)) 0.5 *. 1e3));
          ("output_digest", digest) ]
        @ (match gap with Some (_, g) -> [ ("paper_gap_pp", Printf.sprintf "%.4f" g) ] | None -> []);
    }

let inproc_traced ~workload ~seed =
  let _, _, round, table = inproc_setup ~workload ~seed in
  let untraced = Inproc.new_tally () in
  let t0 = Host.now () in
  Inproc.run_round ~traced:false table untraced round;
  let untraced_wall = Host.now () -. t0 in
  Spans.reset ();
  Spans.enabled := true;
  let traced = Inproc.new_tally () in
  let t1 = Host.now () in
  Inproc.run_round ~traced:true table traced round;
  let traced_wall = Host.now () -. t1 in
  Spans.enabled := false;
  (traced, traced_wall, untraced_wall, Array.length round)

(* --- serve-mixed ------------------------------------------------------------- *)

let serve_e2e ~seed ~seconds ~daemon =
  let module SM = Serve_mixed in
  (* the daemon keeps two cores busy: calibrate on two *)
  Calib.width := 2;
  let setup_s, (s, pos, table) =
    timed_setups serve_setup_repeats ~discard:(fun (s, _, _) -> SM.teardown s) (fun () ->
        let t0 = Host.now () in
        let table = Check.load () in
        let s, pos = SM.setup ~seed ~exe:daemon ~dir:out_dir table in
        let dt = Host.now () -. t0 in
        (t0, dt, (s, pos, table)))
  in
  let t = SM.new_tally () in
  let start = Host.now () in
  let pos = ref pos in
  let hashes_below = !pos + SM.digest_rounds in
  (* The daemon's VmHWM is read after a fixed number of timed requests, for
     the reason Inproc.rss_rounds gives. *)
  let rss = ref nan in
  (* Stretches of [Calib.interval] seconds, a calibration slice between. *)
  let more () = Host.now () -. start < seconds || t.SM.attempted - t.SM.failed < Host.p90_samples in
  while more () do
    let stretch = Host.now () in
    pos :=
      SM.drive s table t ~from:!pos
        ~continue:(fun _ -> Host.now () -. stretch < Calib.interval && more ())
        ~traced:false ~hashes_below;
    if Float.is_nan !rss && t.SM.attempted >= SM.rss_requests then rss := Host.peak_rss_mb ~pid:s.SM.daemon.SM.pid ();
    Calib.take ()
  done;
  let wall = Host.now () -. start in
  if Float.is_nan !rss then rss := Host.peak_rss_mb ~pid:s.SM.daemon.SM.pid ();
  SM.teardown s;
  let checks =
    [
      (match SM.output_digest t with
      | None -> Ok ()
      | Some digest -> Check.verify_digest table ~workload:"serve-mixed" ~seed digest);
      (match t.SM.sampled_hit with
      | None -> Error "no cache hit to sample"
      | Some (sc, p) -> (
        match Cpufree_serve.Exec.run sc with
        | Ok direct when Cpufree_serve.Protocol.payload_equal direct p -> Ok ()
        | Ok _ -> Error "a cache hit differs from a direct Serve.Exec.run of its scenario"
        | Error e -> Error ("direct Serve.Exec.run failed: " ^ e)));
    ]
  in
  let extra_failures = List.filter_map (function Ok () -> None | Error e -> Some e) checks in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (t.SM.errors @ extra_failures);
  {
    setup_s;
    ops = List.length t.SM.latencies;
    busy = List.fold_left (fun acc (at, dt) -> acc +. Calib.normalize ~at dt) 0.0 t.SM.segments;
    latencies = Array.of_list (List.map (fun (at, dt) -> Calib.normalize ~at dt) t.SM.latencies);
    events = t.SM.events;
    event_time = List.fold_left (fun acc (at, dt) -> acc +. Calib.normalize ~at dt) 0.0 t.SM.segments;
    rss_mb = !rss;
    attempted = t.SM.attempted + List.length extra_failures;
    failed = t.SM.failed + List.length extra_failures;
    extra =
      [
        ("hits", string_of_int (List.length t.SM.hit_latencies));
        ("misses", string_of_int (List.length t.SM.miss_latencies));
        ("remisses", string_of_int t.SM.remisses);
        ("raw_wall_s", Printf.sprintf "%.3f" wall);
        ("raw_hit_p50_ms", Printf.sprintf "%.4f" (Host.median t.SM.hit_latencies *. 1e3));
        ("raw_miss_p50_ms", Printf.sprintf "%.4f" (Host.median t.SM.miss_latencies *. 1e3));
        ("raw_latency_p10_p25_p50_p75_p90_ms",
         String.concat "/" (List.map (fun p -> Printf.sprintf "%.3f" (Host.percentile (Array.of_list (List.map snd t.SM.latencies)) p *. 1e3)) [0.1; 0.25; 0.5; 0.75; 0.9]));
        ("output_digest", Option.value ~default:"-" (SM.output_digest t));
      ];
  }

(* Half the time untraced, half traced: the ratio of mean wall time per
   request is the tracing overhead. *)
let serve_traced ~seed ~seconds ~daemon =
  let module SM = Serve_mixed in
  let table = Check.load () in
  let s, pos = SM.setup ~seed ~exe:daemon ~dir:out_dir table in
  let phase ~traced from =
    let t = SM.new_tally () in
    let start = Host.now () in
    let stop = SM.drive s table t ~from ~continue:(fun _ -> Host.now () -. start < seconds /. 2.0) ~traced ~hashes_below:0 in
    (t, Host.now () -. start, stop)
  in
  let u, u_wall, pos = phase ~traced:false pos in
  let before = SM.stats s in
  Spans.reset ();
  Spans.enabled := true;
  let gc0 = Gc.quick_stat () in
  let t, t_wall, _ = phase ~traced:true pos in
  let gc1 = Gc.quick_stat () in
  Spans.enabled := false;
  let after = SM.stats s in
  SM.teardown s;
  let module P = Cpufree_serve.Protocol in
  let set name v = Hashtbl.replace Spans.counters name v in
  let d f = float_of_int (f after - f before) in
  set "serve.hits" (d (fun x -> x.P.hits));
  set "serve.misses" (d (fun x -> x.P.misses));
  set "serve.simulations" (d (fun x -> x.P.simulations));
  set "serve.coalesced" (d (fun x -> x.P.coalesced));
  set "serve.overloads" (d (fun x -> x.P.overloads));
  set "serve.errors" (d (fun x -> x.P.errors));
  set "serve.remisses" (float_of_int t.SM.remisses);
  set "serve.hit_latency_p50_ms" (Host.median t.SM.hit_latencies *. 1e3);
  set "serve.miss_latency_p50_ms" (Host.median t.SM.miss_latencies *. 1e3);
  set "engine.events" (float_of_int t.SM.events);
  set "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  set "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let per_req tally wall = wall /. float_of_int (max 1 tally.SM.attempted) in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) t.SM.errors;
  (t.SM.attempted, t.SM.failed, t_wall, per_req t t_wall /. per_req u u_wall)

(* --- record -------------------------------------------------------------------- *)

(* Every op any seed can draw: the generators pick from small fixed menus,
   so a sweep over enough seeds reaches each member (the self-test checks
   that the ops of 57 other seeds are all recorded). *)
let record_seeds = 600

let record () =
  let keyed = Hashtbl.create 1024 in
  let add op = if not (Hashtbl.mem keyed (Gen.key op)) then Hashtbl.replace keyed (Gen.key op) op in
  for seed = 0 to record_seeds - 1 do
    Array.iter add (Gen.paper ~seed);
    Array.iter add (Gen.cluster ~seed)
  done;
  let serve_lines = Hashtbl.create 1024 in
  for seed = 0 to record_seeds - 1 do
    Array.iter (fun (_, l) -> Hashtbl.replace serve_lines l ()) (Gen.serve_pool ~seed)
  done;
  Printf.printf "recording %d in-process ops and %d serve scenarios\n%!" (Hashtbl.length keyed)
    (Hashtbl.length serve_lines);
  let entries = ref [] in
  Hashtbl.iter
    (fun key op ->
      let bare = Ops.exec ~traced:false op and observed = Ops.exec ~traced:true op in
      if bare.Ops.fields <> observed.Ops.fields then die "%s: outputs differ with a registry" key;
      let events = Option.value ~default:0 observed.Ops.events in
      entries := (key, { Check.events; output = Check.md5 bare.Ops.fields }) :: !entries)
    keyed;
  Hashtbl.iter
    (fun line () ->
      let sc = Ops.ok_or_fail (Cpufree_core.Scenario.of_string line) in
      let p = match Cpufree_serve.Exec.run sc with Ok p -> p | Error e -> die "%s: %s" line e in
      (* The engine count comes from the metrics artifact of a twin request. *)
      let events =
        match Cpufree_serve.Exec.run { sc with Cpufree_core.Scenario.metrics = true } with
        | Ok { Cpufree_serve.Protocol.metrics = Some m; _ } -> Check.events_of_metrics m
        | _ -> die "%s: no metrics artifact" line
      in
      entries := (line, { Check.events; output = Check.md5 (Check.payload_fields p) }) :: !entries)
    serve_lines;
  let entries = List.sort compare !entries in
  let out key = (List.assoc key entries).Check.output in
  let seed = Check.default_seed in
  let round_digest round = Check.round_digest (Array.to_list (Array.map (fun op -> out (Gen.key op)) round)) in
  let serve = Gen.serve ~seed ~length:Serve_mixed.stream_length in
  let serve_digest =
    Check.round_digest
      (List.init Serve_mixed.digest_rounds (fun i ->
           out (snd serve.Gen.pool.(serve.Gen.stream.(serve.Gen.warmup + i)))))
  in
  Check.save ~ops:entries
    ~digests:
      [
        ("paper-figures", seed, round_digest (Gen.paper ~seed));
        ("cluster-allreduce", seed, round_digest (Gen.cluster ~seed));
        ("serve-mixed", seed, serve_digest);
      ];
  Printf.printf "wrote %s (%d entries)\n" Check.path (List.length entries)

(* --- main ------------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref Check.default_seed and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" and commit = ref "unknown" and mode = ref `Run in
  let rec parse = function
    | [] -> ()
    | "record" :: rest ->
      mode := `Record;
      parse rest
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match int_of_string_opt v with Some n when n > 0 -> n | _ -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := int_of_string v;
      parse rest
    | "--daemon" :: v :: rest ->
      daemon := v;
      parse rest
    | "--commit" :: v :: rest ->
      commit := v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match Sys.getenv_opt "CPUFREE_PDES" with
  | None | Some ("" | "seq" | "sequential") -> ()
  | Some v -> die "CPUFREE_PDES=%s: the workloads are defined on the sequential driver; unset it" v);
  if not (Sys.file_exists Check.path) then die "%s not found: run from the repository root" Check.path;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  match !mode with
  | `Record -> record ()
  | `Run ->
    if !daemon = "" || not (Sys.file_exists !daemon) then die "--daemon must name the cpufree_run executable";
    let workload = !workload and seed = !seed and seconds = float_of_int !seconds in
    if not (List.mem workload Gen.workloads) then usage ();
    let facts = Host.facts ~commit:!commit ~seed @ [ ("workload", workload); ("trace", string_of_int !trace) ] in
    Printf.printf "perfbench %s\n" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) facts));
    let result_file = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed !trace) in
    let finish ~attempted ~failed ~extra metrics =
      let correct = failed = 0 in
      Report.print_metrics (Printf.sprintf "%s (seed %d)" workload seed) metrics;
      List.iter (fun (k, v) -> Printf.printf "  %-28s %16s\n" k v) extra;
      let line = Report.json_line ~correct ~attempted ~failed metrics in
      write_file result_file
        (Cpufree_core.Json.to_string
           (Cpufree_core.Json.Obj
              [
                ("facts", json_facts facts);
                ("extra", json_facts extra);
                ("result", Result.get_ok (Cpufree_core.Json.of_string line));
              ]));
      print_endline line;
      exit (if correct then 0 else 1)
    in
    if !trace = 0 then begin
      let r =
        if workload = "serve-mixed" then serve_e2e ~seed ~seconds ~daemon:!daemon
        else inproc_e2e ~workload ~seed ~seconds
      in
      let ratio = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
      let beyond = Host.beyond_p90 (Array.length r.latencies) in
      if beyond < 10 then Printf.eprintf "perfbench: warning: only %d samples beyond p90\n%!" beyond;
      finish ~attempted:r.attempted ~failed:r.failed
        ~extra:
          (("samples", string_of_int (Array.length r.latencies))
          :: ("samples_beyond_p90", string_of_int beyond)
          :: ("failed_ratio", Printf.sprintf "%.6f" ratio)
          :: ("calibration_slice_ms", Printf.sprintf "%.3f" (Calib.median_slice () *. 1e3))
          :: r.extra)
        (e2e_metrics r)
    end
    else begin
      let attempted, failed, traced_wall, ops, overhead =
        if workload = "serve-mixed" then begin
          let a, f, w, o = serve_traced ~seed ~seconds ~daemon:!daemon in
          (a, f, w, a, o)
        end
        else begin
          let t, tw, uw, n = inproc_traced ~workload ~seed in
          List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) t.Inproc.errors;
          (t.Inproc.attempted, t.Inproc.failed, tw, n, tw /. uw)
        end
      in
      Report.print_layer_table ~traced_wall;
      List.iter (fun l -> Printf.printf "  %s\n" l) (Report.ratio_bases ());
      Printf.printf "  bench.trace_overhead_ratio = traced wall / untraced wall of the same work\n";
      let doc = Spans.to_perfetto () in
      (match Cpufree_core.Trace_json.validate_string doc with
      | Ok () -> ()
      | Error e -> die "span trace fails Trace_json validation: %s" e);
      let trace_file = Filename.concat out_dir (Printf.sprintf "%s-seed%d-spans.json" workload seed) in
      write_file trace_file doc;
      finish ~attempted ~failed ~extra:[ ("span_trace", trace_file) ] (Report.per_layer ~ops ~overhead)
    end
