module Scenario = Cpufree_core.Scenario
module Measure = Cpufree_core.Measure
module Env = Cpufree_obs.Sim_env
module S = Cpufree_stencil
module D = Cpufree_dace
module J = Cpufree_core.Json
module Time = Cpufree_engine.Time

(* Render the environment's sinks: the daemon's artifacts and the CLI's
   --trace-out/--metrics-out files. The renderers are checked against the
   schema validators by test laws, not here. *)
let artifacts (env : Env.t) =
  ( Option.map (Cpufree_obs.Perfetto.to_json_string ?metrics:env.Env.metrics) env.Env.trace,
    Option.map
      (fun reg -> J.to_string ~indent:2 (Cpufree_core.Metrics_json.to_json reg) ^ "\n")
      env.Env.metrics )

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
      let r = o.Measure.result and trace, metrics = artifacts job.Measure.sc_env in
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
          chaos = Option.map chaos_summary o.Measure.chaos;
          metrics;
          trace;
        }
  with e -> Error ("simulation failed: " ^ Printexc.to_string e)
