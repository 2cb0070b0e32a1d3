module Scenario = Cpufree_core.Scenario
module Measure = Cpufree_core.Measure
module Env = Cpufree_obs.Sim_env
module S = Cpufree_stencil
module D = Cpufree_dace
module J = Cpufree_core.Json
module Time = Cpufree_engine.Time

(* Render the environment's sinks — the daemon's artifacts and the CLI's
   --trace-out/--metrics-out files — refusing a document its own schema
   validator rejects. *)
let artifacts (env : Env.t) =
  let ( let* ) = Result.bind in
  let* trace =
    match env.Env.trace with
    | None -> Ok None
    | Some tr ->
      let s = Cpufree_obs.Perfetto.to_json_string ?metrics:env.Env.metrics tr in
      (match Cpufree_core.Trace_json.validate_string s with
      | Ok () -> Ok (Some s)
      | Error m -> Error ("trace artifact failed schema validation: " ^ m))
  in
  let* metrics =
    match env.Env.metrics with
    | None -> Ok None
    | Some reg ->
      let doc = Cpufree_core.Metrics_json.to_json reg in
      (match Cpufree_core.Metrics_json.validate doc with
      | Ok () -> Ok (Some (J.to_string ~indent:2 doc ^ "\n"))
      | Error m -> Error ("metrics artifact failed schema validation: " ^ m))
  in
  Ok (trace, metrics)

let payload_of (r : Measure.result) ~chaos ~env =
  match artifacts env with
  | Error _ as e -> e
  | Ok (trace, metrics) ->
    Ok
      {
        Protocol.label = r.Measure.label;
        gpus = r.Measure.gpus;
        iterations = r.Measure.iterations;
        total_ns = Time.to_ns r.Measure.total;
        per_iter_ns = Time.to_ns r.Measure.per_iter;
        comm_ns = Time.to_ns r.Measure.comm;
        overlap = r.Measure.overlap;
        bytes_moved = r.Measure.bytes_moved;
        chaos;
        metrics;
        trace;
      }

let chaos_summary (c : Measure.chaos) =
  {
    Protocol.completed = c.Measure.completed;
    trigger = c.Measure.trigger;
    dropped = c.Measure.dropped;
    delayed = c.Measure.delayed;
    resent = c.Measure.resent;
    retried = c.Measure.retried;
  }

(* The one scenario dispatcher: each workload kind is interpreted by the
   layer that owns its names. *)
let job sc =
  match sc.Scenario.workload with
  | Scenario.Stencil _ -> S.Harness.of_scenario sc
  | Scenario.Dace _ -> D.Pipeline.of_scenario sc

let run sc =
  try
    match job sc with
    | Error _ as e -> e
    | Ok job ->
      let o = Measure.run job in
      payload_of o.Measure.result ~chaos:(Option.map chaos_summary o.Measure.chaos)
        ~env:job.Measure.sc_env
  with e -> Error ("simulation failed: " ^ Printexc.to_string e)
