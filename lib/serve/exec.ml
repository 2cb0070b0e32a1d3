module Scenario = Cpufree_core.Scenario
module Measure = Cpufree_core.Measure
module Env = Cpufree_obs.Sim_env
module S = Cpufree_stencil
module D = Cpufree_dace
module J = Cpufree_core.Json
module Time = Cpufree_engine.Time

(* Render the environment's sinks exactly as the CLI's
   --trace-out/--metrics-out files would, refusing to ship a document its
   own schema validator rejects. *)
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

let run_stencil sc =
  match S.Harness.of_scenario sc with
  | Error _ as e -> e
  | Ok hsc ->
    let env = S.Harness.scenario_sim_env hsc in
    if sc.Scenario.faults <> None then begin
      let cr = S.Harness.run_scenario_chaos hsc in
      payload_of cr.S.Harness.chaos.Measure.base
        ~chaos:(Some (chaos_summary cr.S.Harness.chaos))
        ~env
    end
    else begin
      payload_of (S.Harness.run_scenario hsc) ~chaos:None ~env
    end

let run_dace sc =
  match D.Pipeline.of_scenario sc with
  | Error _ as e -> e
  | Ok dsc ->
    let env = dsc.D.Pipeline.sc_env in
    if sc.Scenario.faults <> None then begin
      let c = D.Pipeline.run_scenario_chaos dsc in
      payload_of c.Measure.base ~chaos:(Some (chaos_summary c)) ~env
    end
    else begin
      payload_of (D.Pipeline.run_scenario dsc) ~chaos:None ~env
    end

let run sc =
  try
    match sc.Scenario.workload with
    | Scenario.Stencil _ -> run_stencil sc
    | Scenario.Dace _ -> run_dace sc
  with e -> Error ("simulation failed: " ^ Printexc.to_string e)
