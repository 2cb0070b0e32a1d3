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
  comm : Time.t;
  overlap : float;
  bytes_moved : int;
}

let measure ~label ~gpus ~iterations eng ctx trace =
  let total = E.Engine.now eng in
  let iters = Stdlib.max 1 iterations in
  {
    label;
    gpus;
    iterations;
    total;
    per_iter = Time.of_ns_float (Time.to_sec_float total *. 1e9 /. float_of_int iters);
    comm = Cpufree_comm.Metrics.comm_time trace;
    overlap = Cpufree_comm.Metrics.overlap_ratio trace;
    bytes_moved = G.Interconnect.bytes_moved (G.Runtime.net ctx);
  }

(* End-of-run observability hand-off: merge the engine's trace into the
   environment's sink (spans and flows, canonically ordered) and fold the
   engine's own counters into the environment's registry. A run with neither
   attached skips both — zero cost on the legacy path. *)
let publish env eng trace =
  (match env.Obs.Sim_env.trace with
  | None -> ()
  | Some sink -> E.Trace.merge_into ~into:sink [ trace ]);
  match env.Obs.Sim_env.metrics with
  | None -> ()
  | Some reg ->
    let c name v = Mx.Counter.add (Mx.counter reg ~name ()) v in
    c "engine.events" (E.Engine.events_executed eng);
    (* The retired parallel drivers' counters stay in the dump at the values
       the sequential driver always reported (no windows, no speculation,
       one partition), so metrics artifacts keep their exact bytes. *)
    c "engine.windows" 0;
    c "engine.solo_windows" 0;
    c "engine.stall_scans" (E.Engine.stall_scans eng);
    c "engine.opt.rounds" 0;
    c "engine.opt.rollbacks" 0;
    c "engine.opt.anti_messages" 0;
    c "engine.opt.events_rolled_back" 0;
    Mx.Gauge.set (Mx.gauge reg ~name:"engine.partitions" ()) 1

(* Shared run core: engine + runtime context from the environment, program as
   the "main" process, the run, then measurement. The
   engine's own trace doubles as the comm-accounting source; it records flow
   arrows only when the environment's sink does, so legacy runs (no sink, or
   a sink without flows) stay byte-identical. *)
let run_core ?arch ~env ~label ~gpus ~iterations program =
  (* Rejects a [CPUFREE_PDES] naming anything but the sequential driver. *)
  let (`Seq : Obs.Sim_env.pdes) = Obs.Sim_env.resolve_pdes env in
  let flows = E.Trace.flows_enabled env.Obs.Sim_env.trace in
  let trace = E.Trace.create ~flows () in
  let eng = E.Engine.create ~trace () in
  let ctx = G.Runtime.create eng ?arch ~env ~num_gpus:gpus () in
  let (_ : E.Engine.process) = E.Engine.spawn eng ~name:"main" (fun () -> program ctx) in
  E.Engine.run eng;
  let r = measure ~label ~gpus ~iterations eng ctx trace in
  publish env eng trace;
  (r, trace)

let run_env ?arch ?(env = Obs.Sim_env.default) ~label ~gpus ~iterations program =
  fst (run_core ?arch ~env ~label ~gpus ~iterations program)

let run_traced_env ?arch ?(env = Obs.Sim_env.default) ~label ~gpus ~iterations program =
  run_core ?arch ~env ~label ~gpus ~iterations program

let probe_env ?arch ?(env = Obs.Sim_env.default) ~label ~gpus ~iterations program =
  (run_env ?arch ~env:(Obs.Sim_env.probe env) ~label ~gpus ~iterations program).total

(* The measurement-layer view of a Scenario: architecture resolved, a fresh
   environment built. Workload interpretation stays downstream — this is
   what Harness.of_scenario and Pipeline.of_scenario build on. *)
type run_spec = { rs_arch : Cpufree_gpu.Arch.t; rs_env : Obs.Sim_env.t; rs_gpus : int }

let of_scenario (sc : Scenario.t) =
  let ( let* ) = Result.bind in
  let* () = Scenario.validate sc in
  let* arch = Scenario.arch_of sc in
  let* () = Scenario.check_fault_vertices sc arch in
  Ok { rs_arch = arch; rs_env = Scenario.env sc; rs_gpus = sc.Scenario.gpus }

module F = Cpufree_fault.Fault

type chaos = {
  base : result;  (** metrics up to the point the run ended (partial on abort) *)
  completed : bool;
  failure : string list;
  trigger : string option;
  dropped : int;
  delayed : int;
  resent : int;
  retried : int;
}

let run_chaos_env ?arch ?watchdog ?(env = Obs.Sim_env.default) ~label ~gpus ~iterations
    program =
  let spec =
    match env.Obs.Sim_env.faults with
    | Some s -> s
    | None -> invalid_arg "Measure.run_chaos_env: env carries no fault spec"
  in
  let (`Seq : Obs.Sim_env.pdes) = Obs.Sim_env.resolve_pdes env in
  let watchdog =
    match watchdog with
    | Some w -> w
    | None -> F.default_watchdog spec
  in
  let flows = E.Trace.flows_enabled env.Obs.Sim_env.trace in
  let trace = E.Trace.create ~flows () in
  let eng = E.Engine.create ~trace ~watchdog () in
  let ctx = G.Runtime.create eng ?arch ~env ~num_gpus:gpus () in
  let plan =
    match G.Runtime.faults ctx with
    | Some p -> p
    | None -> assert false (* env.faults is Some, so create activated a plan *)
  in
  let (_ : E.Engine.process) = E.Engine.spawn eng ~name:"main" (fun () -> program ctx) in
  let completed, failure, trigger =
    match E.Engine.run eng with
    | () -> (true, [], None)
    | exception E.Engine.Stall report ->
      if flows then
        E.Trace.add_instant trace ~lane:"host"
          ~label:("stall:" ^ report.E.Engine.stall_trigger)
          ~at:report.E.Engine.stall_at;
      (false, E.Engine.stall_lines report, Some report.E.Engine.stall_trigger)
    | exception E.Engine.Deadlock lines -> (false, "deadlock:" :: lines, Some "deadlock")
    | exception F.Killed { pe; at } ->
      (* A resilient waiter diagnosed a fail-stop GPU death that no layer
         below chose to absorb: report it as an aborted run with a [kill:]
         trigger so a recovery harness can shrink and restart. *)
      F.note_obituary plan ~pe ~at;
      let trig = Printf.sprintf "kill:pe%d" pe in
      if flows then
        E.Trace.add_instant trace ~lane:"host" ~label:("stall:" ^ trig)
          ~at:(E.Engine.now eng);
      ( false,
        [
          Printf.sprintf "fail-stop: pe%d died at %s, diagnosed at %s" pe (Time.to_string at)
            (Time.to_string (E.Engine.now eng));
        ],
        Some trig )
    | exception Cpufree_machine.Topology.Partitioned msg ->
      (false, [ "partitioned: " ^ msg ], Some "partitioned")
  in
  let stats = F.stats plan in
  let base = measure ~label ~gpus ~iterations eng ctx trace in
  publish env eng trace;
  (match env.Obs.Sim_env.metrics with
  | None -> ()
  | Some reg ->
    let c name v = Mx.Counter.add (Mx.counter reg ~name ()) v in
    c "fault.dropped" stats.F.dropped;
    c "fault.delayed" stats.F.delayed;
    c "fault.resent" stats.F.resent;
    c "fault.retried" stats.F.retried;
    (* Self-healing counters only exist on fail-stop runs, so metric dumps
       of every pre-existing chaos scenario stay byte-identical. *)
    if F.has_failstop spec then begin
      let r = F.recovery plan in
      c "fault.kills_detected" r.F.kills_detected;
      c "fault.shrinks" r.F.shrinks;
      c "fault.restarts" r.F.restarts
    end);
  {
    base;
    completed;
    failure;
    trigger;
    dropped = stats.F.dropped;
    delayed = stats.F.delayed;
    resent = stats.F.resent;
    retried = stats.F.retried;
  }

let best_of ~runs f =
  if runs < 1 then invalid_arg "Measure.best_of: need at least one run";
  let rec go best remaining =
    if remaining = 0 then best
    else begin
      let r = f () in
      let best = if Time.(r.total < best.total) then r else best in
      go best (remaining - 1)
    end
  in
  go (f ()) (runs - 1)

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
