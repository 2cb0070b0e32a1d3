(* One operation of the in-process workloads, driven through the layers'
   public entry points, each call wrapped in a span named after its layer.

   [traced] additionally attaches a metrics registry to the run (its
   counters feed the per-layer table) and makes the calls that only exist
   to attribute cost: an extra [Topology.instantiate], the cold route
   replay, [Scenario.digest]. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Sc = Cpufree_core.Scenario
module Measure = Cpufree_core.Measure
module Env = Cpufree_obs.Sim_env
module Mx = Cpufree_obs.Metrics
module Topology = Cpufree_machine.Topology
module Coll = Cpufree_comm.Collective
module Nv = Cpufree_comm.Nvshmem
module S = Cpufree_stencil
module D = Cpufree_dace

type outcome = {
  fields : string;  (** every simulated output, as text; hashed by {!Check} *)
  events : int option;  (** engine events, when this run could see them *)
  result : Measure.result option;  (** for the headline comparison *)
}

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* Registry counters the per-layer table reports, summed over labels. *)
let registry_counters =
  [
    ("engine.events", "engine.events");
    ("runtime.api_calls", "gpu.api_calls");
    ("runtime.launches", "gpu.launches");
    ("fabric.transfers", "gpu.transfers");
    ("fabric.bytes", "gpu.bytes_moved");
    ("nvshmem.puts", "comm.nvshmem_puts");
    ("nvshmem.signal_waits", "comm.nvshmem_signal_waits");
  ]

let registry_events reg =
  List.fold_left
    (fun acc (it : Mx.item) ->
      match it.Mx.value with Mx.Counter_v n when it.Mx.name = "engine.events" -> acc + n | _ -> acc)
    0 (Mx.items reg)

let fold_registry reg =
  List.iter
    (fun (it : Mx.item) ->
      match (it.Mx.value, List.assoc_opt it.Mx.name registry_counters) with
      | Mx.Counter_v n, Some metric -> Spans.add metric (float_of_int n)
      | _ -> ())
    (Mx.items reg)

(* Run a compiled program on a fresh engine the benchmark can see, so the
   event count comes from [Engine.events_executed] rather than a registry. *)
let run_owned ~arch ~env ~label ~gpus ~iterations program =
  let eng = ref None in
  let r =
    Measure.run_env ~arch ~env ~label ~gpus ~iterations (fun ctx ->
        eng := Some (G.Runtime.engine ctx);
        program ctx)
  in
  (r, Option.map E.Engine.events_executed !eng)

let measured ~traced ~env (r, owned_events) =
  let events =
    match (traced, env.Env.metrics) with
    | true, Some reg ->
      fold_registry reg;
      Some (registry_events reg)
    | _ -> owned_events
  in
  { fields = Check.result_fields r; events; result = Some r }

(* --- cluster allreduce ---------------------------------------------------- *)

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

(* The GPU pairs each schedule talks over (power-of-two group): binomial
   tree edges both ways, recursive-doubling partners, ring successors. *)
let schedule_pairs algorithm gpus =
  let lowbit r = r land -r in
  match algorithm with
  | "tree" ->
    let up = List.init (gpus - 1) (fun i -> (i + 1, i + 1 - lowbit (i + 1))) in
    up @ List.map (fun (a, b) -> (b, a)) up
  | "doubling" ->
    List.concat_map (fun k -> List.init gpus (fun r -> (r, r lxor (1 lsl k)))) (List.init (log2 gpus) Fun.id)
  | _ -> List.init gpus (fun r -> (r, (r + 1) mod gpus))

(* Resolve a cell's GPU pairs on a topology nobody has routed on yet, as
   the interconnect would: what route resolution costs the cell, without
   the rest of the simulation. *)
let route_replay spec ~gpus pairs =
  let profile = G.Arch.fabric_profile G.Arch.a100_hgx in
  let topo =
    Spans.with_span "machine.instantiate" (fun () -> Topology.instantiate spec ~profile ~gpus)
  in
  Spans.with_span "machine.route_replay" (fun () ->
      List.iter
        (fun (a, b) ->
          let src = Topology.gpu_vertex topo a and dst = Topology.gpu_vertex topo b in
          (* the three lookups Interconnect makes to fill one pair's entry *)
          ignore (Topology.route_ports topo ~src ~dst : int list);
          ignore (Topology.route_latency topo ~src ~dst : Cpufree_engine.Time.t);
          ignore (Topology.route_ns_per_byte topo ~src ~dst : float))
        pairs);
  Spans.add "machine.routes_resolved" (float_of_int (List.length pairs));
  Spans.add "machine.route_rows_cached" (float_of_int (Topology.route_rows_cached topo))

let all_pairs gpus =
  List.concat_map (fun a -> List.filter_map (fun b -> if a <> b then Some (a, b) else None) (List.init gpus Fun.id)) (List.init gpus Fun.id)

let run_line ~traced line =
  let sc = Spans.with_span "core.scenario_parse" (fun () -> ok_or_fail (Sc.of_string line)) in
  if traced then begin
    ignore (Spans.with_span "core.digest" (fun () -> Sc.digest sc) : string);
    route_replay sc.Sc.topology ~gpus:sc.Sc.gpus (all_pairs sc.Sc.gpus)
  end;
  let sc = if traced then { sc with Sc.metrics = true } else sc in
  match sc.Sc.workload with
  | Sc.Stencil _ ->
    let h = Spans.with_span "stencil.build" (fun () -> ok_or_fail (S.Harness.of_scenario sc)) in
    let r = Spans.with_span "stencil.run" (fun () -> S.Harness.run_scenario h) in
    measured ~traced ~env:(S.Harness.scenario_sim_env h) (r, None)
  | Sc.Dace _ ->
    let p = Spans.with_span "dace.compile" (fun () -> ok_or_fail (D.Pipeline.of_scenario sc)) in
    let env = p.D.Pipeline.sc_env in
    measured ~traced ~env
      (Spans.with_span "dace.run" (fun () ->
           run_owned ~arch:p.D.Pipeline.sc_arch ~env ~label:p.D.Pipeline.sc_label
             ~gpus:p.D.Pipeline.sc_gpus ~iterations:p.D.Pipeline.sc_iterations p.D.Pipeline.sc_program))

let observed_env traced = if traced then Env.make ~metrics:(Mx.create ()) () else Env.default

let run_rect ~traced ~arm ~nx ~ny ~iters ~gpus =
  let app = D.Pipeline.Jacobi2d { D.Programs.nx_global = nx; ny_global = ny; tsteps = iters } in
  let arm = if arm = "baseline" then D.Pipeline.Baseline_mpi else D.Pipeline.Cpu_free in
  let built = Spans.with_span "dace.compile" (fun () -> D.Pipeline.compile app arm ~gpus) in
  let env = observed_env traced in
  measured ~traced ~env
    (Spans.with_span "dace.run" (fun () ->
         run_owned ~arch:G.Arch.a100_hgx ~env
           ~label:(D.Pipeline.app_name app ^ "/" ^ D.Pipeline.arm_name arm)
           ~gpus ~iterations:iters built.D.Exec.program))

let run_search ~program ~size ~gpus ~iters =
  let sdfg =
    match program with
    | "smoother" -> D.Programs.smoother_global { D.Programs.sm_n = size; sm_steps = iters }
    | "jacobi1d" ->
      D.Pipeline.frontend (D.Pipeline.Jacobi1d { D.Programs.n_global = size; tsteps = iters }) D.Pipeline.Cpu_free ~gpus
    | "jacobi2d" ->
      D.Pipeline.frontend
        (D.Pipeline.Jacobi2d { D.Programs.nx_global = size; ny_global = size; tsteps = iters })
        D.Pipeline.Cpu_free ~gpus
    | _ ->
      D.Pipeline.frontend
        (D.Pipeline.Heat3d { D.Programs.nx3 = size; ny3 = size; nz3 = size; tsteps3 = iters })
        D.Pipeline.Cpu_free ~gpus
  in
  let d =
    Spans.with_span "dace.search" (fun () ->
        ok_or_fail (D.Autotune.search sdfg ~gpus ~iterations:iters))
  in
  Spans.add "dace.candidates" (float_of_int (List.length d.D.Autotune.evaluated));
  let plan (p, t) = Printf.sprintf "%s=%d" (D.Autotune.plan_to_string p) (E.Time.to_ns t) in
  {
    fields =
      Printf.sprintf "best=%s evaluated=%s" (plan (d.D.Autotune.best, d.D.Autotune.predicted))
        (String.concat "," (List.map plan d.D.Autotune.evaluated));
    events = None;
    result = None;
  }

let run_allreduce ~traced ~algorithm ~host ~topology ~gpus ~rotate =
  let spec = ok_or_fail (Topology.spec_of_string topology) in
  let alg = ok_or_fail (Coll.algorithm_of_string algorithm) in
  if traced then route_replay spec ~gpus (schedule_pairs algorithm gpus);
  let env =
    if traced then Env.make ~topology:spec ~metrics:(Mx.create ()) () else Env.make ~topology:spec ()
  in
  let eng = E.Engine.create () in
  let ctx =
    Spans.with_span "gpu.runtime_create" (fun () -> G.Runtime.create eng ~env ~num_gpus:gpus ())
  in
  let contribution pe = float_of_int (((pe + rotate) mod gpus) + 1) in
  let results = Array.make gpus nan in
  Spans.with_span
    (if host then "comm.allreduce_host" else "comm.allreduce_device")
    (fun () ->
      if host then
        ignore
          (E.Engine.spawn eng ~name:"host" (fun () ->
               let out =
                 Coll.host_allreduce_sum ctx ~algorithm:alg ~label:"coll" (Array.init gpus contribution)
               in
               Array.blit out 0 results 0 (min gpus (Array.length out)))
            : E.Engine.process)
      else begin
        let coll = Coll.create ~algorithm:alg (Nv.init ctx) ~label:"coll" in
        for pe = 0 to gpus - 1 do
          ignore
            (E.Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () ->
                 results.(pe) <- Coll.allreduce_sum coll ~pe (contribution pe))
              : E.Engine.process)
        done
      end;
      Spans.with_span "engine.run" (fun () -> E.Engine.run eng));
  let expected = float_of_int (gpus * (gpus + 1) / 2) in
  Array.iteri
    (fun pe v ->
      if v <> expected then
        failwith (Printf.sprintf "allreduce on PE %d returned %g, expected n(n+1)/2 = %g" pe v expected))
    results;
  let net = G.Runtime.net ctx in
  let pairs = G.Interconnect.pairs_resolved net in
  let events = E.Engine.events_executed eng in
  if traced then begin
    Option.iter fold_registry env.Env.metrics;
    Spans.add "gpu.pairs_resolved" (float_of_int pairs);
    Spans.add "gpu.pairs_possible" (float_of_int (gpus * gpus));
    Spans.add "engine.owned_events" (float_of_int events);
    Spans.add "engine.events" (float_of_int events)
  end;
  {
    fields =
      Printf.sprintf "total=%d pairs=%d value=%h" (E.Time.to_ns (E.Engine.now eng)) pairs expected;
    events = Some events;
    result = None;
  }

let exec ~traced = function
  | Gen.Run line -> run_line ~traced line
  | Gen.Jacobi2d_rect { arm; nx; ny; iters; gpus } -> run_rect ~traced ~arm ~nx ~ny ~iters ~gpus
  | Gen.Search { program; size; gpus; iters } -> run_search ~program ~size ~gpus ~iters
  | Gen.Allreduce { algorithm; host; topology; gpus; rotate } ->
    run_allreduce ~traced ~algorithm ~host ~topology ~gpus ~rotate
