module E = Cpufree_engine
module G = Cpufree_gpu
module Obs = Cpufree_obs
module Mx = Obs.Metrics
module Time = E.Time

type result = {
  label : string;
  gpus : int;
  iterations : int;
  total : Time.t;
  per_iter : Time.t;
  compute : Time.t;
  comm : Time.t;
  overlap : float;
  bytes_moved : int;
}

(* Compute time, comm time and overlap come from the engine's busy log,
   which every run keeps whether or not it records spans. *)
let measure ~label ~gpus ~iterations eng ctx =
  let total = E.Engine.now eng in
  let iters = Stdlib.max 1 iterations in
  let busy = E.Engine.busy eng in
  let comm, overlap = E.Intervals.Log.comm_and_overlap busy in
  {
    label;
    gpus;
    iterations;
    total;
    per_iter = Time.of_ns_float (Time.to_sec_float total *. 1e9 /. float_of_int iters);
    compute = E.Intervals.Log.compute_total busy;
    comm;
    overlap;
    bytes_moved = G.Interconnect.bytes_moved (G.Runtime.net ctx);
  }

(* End-of-run hand-off: fold the engine's own counters into the
   environment's registry. A run without one skips it. *)
let publish env eng =
  match env.Obs.Sim_env.metrics with
  | None -> ()
  | Some reg ->
    let c name v = Mx.Counter.add (Mx.counter reg ~name ()) v in
    c "engine.events" (E.Engine.events_executed eng);
    (* Seven constants of the retired parallel drivers (no windows, no
       speculation, one partition). They stay until the benchmark
       re-records its table, which holds the md5 of every metrics
       artifact. *)
    c "engine.windows" 0;
    c "engine.solo_windows" 0;
    c "engine.stall_scans" (E.Engine.stall_scans eng);
    c "engine.opt.rounds" 0;
    c "engine.opt.rollbacks" 0;
    c "engine.opt.anti_messages" 0;
    c "engine.opt.events_rolled_back" 0;
    Mx.Gauge.set (Mx.gauge reg ~name:"engine.partitions" ()) 1

(* The engine's trace: one exists only when someone reads spans. The
   environment's sink is it, so the engine records straight into it (flow
   arrows too, if the sink was created with them); without a sink, a caller
   asking for [~traced] gets a private one without flows. Comm accounting
   never needs it. *)
let engine_trace ~traced env =
  match env.Obs.Sim_env.trace with
  | Some _ as sink -> sink
  | None -> if traced then Some (E.Trace.create ()) else None

type program = G.Runtime.ctx -> (unit -> unit) -> unit

type job = {
  sc_label : string;
  sc_gpus : int;
  sc_iterations : int;
  sc_arch : G.Arch.t;
  sc_env : Obs.Sim_env.t;
  sc_program : program;
  sc_progress : unit -> int array;
}

let job ?(arch = G.Arch.a100_hgx) ?(env = Obs.Sim_env.default) ?(progress = fun () -> [||])
    ~label ~gpus ~iterations program =
  {
    sc_label = label;
    sc_gpus = gpus;
    sc_iterations = iterations;
    sc_arch = arch;
    sc_env = env;
    sc_program = program;
    sc_progress = progress;
  }

(* The measurement-layer view of a Scenario: validated, architecture
   resolved, a fresh environment built. Workload interpretation stays
   downstream — this is what Harness.of_scenario and Pipeline.of_scenario
   build their jobs on. *)
let of_scenario (sc : Scenario.t) =
  let ( let* ) = Result.bind in
  let* () = Scenario.validate sc in
  let* arch = Scenario.arch_of sc in
  let* () = Scenario.check_fault_vertices sc arch in
  Ok (arch, Scenario.env sc)

module F = Cpufree_fault.Fault

type chaos = {
  base : result;
  completed : bool;
  failure : string list;
  trigger : string option;
  dropped : int;
  delayed : int;
  resent : int;
  retried : int;
  progress : int array;
}

type outcome = { result : result; trace : E.Trace.t option; chaos : chaos option }

(* Run the engine under a fault plan: a stall, deadlock, diagnosed kill or
   partition ends the run as a diagnosed abort instead of an exception.
   Returns [(completed, failure, trigger)]. *)
let run_guarded eng trace plan =
  match E.Engine.run eng with
  | () -> (true, [], None)
  | exception E.Engine.Stall report ->
    if E.Trace.flows_enabled trace then
      E.Trace.add_instant_opt trace ~lane:"host"
        ~label:("stall:" ^ report.E.Engine.stall_trigger)
        ~at:report.E.Engine.stall_at;
    (false, E.Engine.stall_lines report, Some report.E.Engine.stall_trigger)
  | exception E.Engine.Deadlock lines -> (false, "deadlock:" :: lines, Some "deadlock")
  | exception F.Killed { pe; at } ->
    (* A resilient waiter diagnosed a fail-stop GPU death that no layer
       below chose to absorb: report it as an aborted run with a [kill:]
       trigger so a recovery harness can restart on the survivors. *)
    F.note_obituary plan ~pe;
    let trig = Printf.sprintf "kill:pe%d" pe in
    if E.Trace.flows_enabled trace then
      E.Trace.add_instant_opt trace ~lane:"host" ~label:("stall:" ^ trig) ~at:(E.Engine.now eng);
    ( false,
      [
        Printf.sprintf "fail-stop: pe%d died at %s, diagnosed at %s" pe (Time.to_string at)
          (Time.to_string (E.Engine.now eng));
      ],
      Some trig )
  | exception Cpufree_machine.Topology.Partitioned msg ->
    (false, [ "partitioned: " ^ msg ], Some "partitioned")

(* Fault-path totals into the registry. The kill counter only exists on
   fail-stop runs, so metric dumps of every other chaos scenario stay
   byte-identical. *)
let publish_faults env spec plan (stats : F.stats) =
  match env.Obs.Sim_env.metrics with
  | None -> ()
  | Some reg ->
    let c name v = Mx.Counter.add (Mx.counter reg ~name ()) v in
    c "fault.dropped" stats.F.dropped;
    c "fault.delayed" stats.F.delayed;
    c "fault.resent" stats.F.resent;
    c "fault.retried" stats.F.retried;
    if F.has_failstop spec then begin
      let r = F.recovery plan in
      c "fault.kills_detected" r.F.kills_detected
    end

let run ?(traced = false) job =
  let env = job.sc_env in
  let trace = engine_trace ~traced env in
  let faults = env.Obs.Sim_env.faults in
  let watchdog = Option.map F.default_watchdog faults in
  let eng = E.Engine.create ?trace ?watchdog () in
  let ctx = G.Runtime.create eng ~arch:job.sc_arch ~env ~num_gpus:job.sc_gpus () in
  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks eng ~name_of:(fun () -> "main") (fun () -> job.sc_program ctx ignore)
  in
  let ending =
    match (faults, G.Runtime.faults ctx) with
    | Some spec, Some plan -> Some (spec, plan, run_guarded eng trace plan)
    | None, _ ->
      E.Engine.run eng;
      None
    | Some _, None -> assert false (* env.faults is Some, so create activated a plan *)
  in
  let result =
    measure ~label:job.sc_label ~gpus:job.sc_gpus ~iterations:job.sc_iterations eng ctx
  in
  publish env eng;
  let chaos =
    Option.map
      (fun (spec, plan, (completed, failure, trigger)) ->
        let stats = F.stats plan in
        publish_faults env spec plan stats;
        {
          base = result;
          completed;
          failure;
          trigger;
          dropped = stats.F.dropped;
          delayed = stats.F.delayed;
          resent = stats.F.resent;
          retried = stats.F.retried;
          progress = job.sc_progress ();
        })
      ending
  in
  { result; trace; chaos }

let run_env ?arch ?env ~label ~gpus ~iterations program =
  (run (job ?arch ?env ~label ~gpus ~iterations program)).result

let probe_env ?arch ?(env = Obs.Sim_env.default) ~label ~gpus ~iterations program =
  run_env ?arch ~env:(Obs.Sim_env.probe env) ~label ~gpus ~iterations program

let speedup_pct ~baseline ~ours =
  let tb = Time.to_sec_float baseline.total and to_ = Time.to_sec_float ours.total in
  if tb = 0.0 then 0.0 else (tb -. to_) /. tb *. 100.0

let pp_result fmt r =
  Format.fprintf fmt "%-28s gpus=%d iters=%d total=%-10s per-iter=%-10s comm=%-10s overlap=%4.1f%%"
    r.label r.gpus r.iterations (Time.to_string r.total) (Time.to_string r.per_iter)
    (Time.to_string r.comm) (r.overlap *. 100.0)

let pp_table fmt ~header results =
  Format.fprintf fmt "== %s ==@." header;
  Format.fprintf fmt "%-28s %5s %8s %12s %12s %12s %9s@." "variant" "gpus" "iters"
    "total" "per-iter" "comm" "overlap";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-28s %5d %8d %12s %12s %12s %8.1f%%@." r.label r.gpus r.iterations
        (Time.to_string r.total) (Time.to_string r.per_iter) (Time.to_string r.comm)
        (r.overlap *. 100.0))
    results
