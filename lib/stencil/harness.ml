module Measure = Cpufree_core.Measure
module Env = Cpufree_obs.Sim_env

(* A variant instance as a job: the progress reader reports every PE (zero
   when the program never started) so a chaos report can show how far each
   one got. *)
let scenario_env ?arch ?env kind problem ~gpus =
  let built = Variants.build kind problem ~gpus in
  let progress () = Array.copy built.Variants.progress in
  Measure.job ?arch ?env ~progress ~label:(Variants.name kind) ~gpus
    ~iterations:problem.Problem.iterations built.Variants.program

let run_scenario job = (Measure.run job).Measure.result

let run_scenario_traced job =
  let o = Measure.run ~traced:true job in
  (o.Measure.result, Option.get o.Measure.trace)

let scenario_sim_env job = job.Measure.sc_env

(* ------------------------------------------------------------------ *)
(* Checkpoint/restart: self-healing from a fail-stop GPU kill          *)
(* ------------------------------------------------------------------ *)

module Time = Cpufree_engine.Time
module F = Cpufree_fault.Fault

type resilient_run = {
  r_first : Measure.chaos;
  r_resume : Measure.chaos option;
  r_killed : int option;
  r_survivors : int;
  r_checkpoint : int;
  r_restart_cost : Time.t;
  r_total : Time.t;
  r_completed : bool;
  r_degraded : bool;
  r_work_saved : int;
}

let parse_kill_trigger trigger =
  match trigger with
  | Some s when String.length s > 7 && String.equal (String.sub s 0 7) "kill:pe" ->
    int_of_string_opt (String.sub s 7 (String.length s - 7))
  | Some _ | None -> None

let strip_failstop (s : F.spec) = { s with F.kills = []; link_fails = []; switch_fails = [] }

(* Modeled cost of the recovery transition: tear down and relaunch the
   persistent kernels on the survivors, plus redistributing the dead PE's
   shard (its share of the global state) across them over NVLink — each
   survivor pulls an equal slice, so the wire time is the shard size over
   the aggregate per-direction NVLink bandwidth of the run's architecture.
   Pure arithmetic on the problem geometry: deterministic. *)
let restart_cost (arch : Cpufree_gpu.Arch.t) problem ~gpus ~survivors =
  let shard_elems = Problem.total_elems problem / max 1 gpus in
  let shard_bytes = float_of_int (shard_elems * 8) in
  let ns_per_byte = 1.0 /. arch.Cpufree_gpu.Arch.nvlink_bw_gbs in
  let wire = Time.of_ns_float (shard_bytes *. ns_per_byte /. float_of_int (max 1 survivors)) in
  Time.add (Time.us 20) wire

let run_resilient ?arch ?watchdog ?(env = Env.default) ~checkpoint_every kind problem ~gpus =
  if checkpoint_every <= 0 then
    invalid_arg "Harness.run_resilient: checkpoint interval must be positive";
  let spec =
    match env.Env.faults with
    | Some s -> s
    | None -> invalid_arg "Harness.run_resilient: env.faults must be set"
  in
  let run_chaos ~env problem ~gpus =
    Option.get (Measure.run ?watchdog (scenario_env ?arch ~env kind problem ~gpus)).Measure.chaos
  in
  let first = run_chaos ~env problem ~gpus in
  (* Nothing healed: a completed run, or an abort that is not a diagnosed
     kill (genuine stall, partition). *)
  let unhealed =
    {
      r_first = first;
      r_resume = None;
      r_killed = None;
      r_survivors = gpus;
      r_checkpoint = 0;
      r_restart_cost = Time.zero;
      r_total = first.Measure.base.Measure.total;
      r_completed = first.Measure.completed;
      r_degraded = false;
      r_work_saved = 0;
    }
  in
  match (first.Measure.completed, parse_kill_trigger first.Measure.trigger) with
  | true, _ | false, None -> unhealed
  | false, Some dead_pe ->
    let survivors = gpus - 1 in
    (* The state every survivor can restore: the last checkpoint at or below
       the least-advanced survivor's completed iteration count. *)
    let min_progress = ref max_int in
    Array.iteri
      (fun pe p -> if pe <> dead_pe && p < !min_progress then min_progress := p)
      first.Measure.progress;
    let min_progress = if !min_progress = max_int then 0 else !min_progress in
    let checkpoint = min_progress / checkpoint_every * checkpoint_every in
    let remaining = problem.Problem.iterations - checkpoint in
    let cost =
      restart_cost (Option.value arch ~default:Cpufree_gpu.Arch.a100_hgx) problem ~gpus ~survivors
    in
    let diagnosed =
      {
        unhealed with
        r_killed = Some dead_pe;
        r_survivors = survivors;
        r_checkpoint = checkpoint;
        r_restart_cost = cost;
      }
    in
    if survivors < 1 || remaining <= 0 then diagnosed
    else begin
      (* Resume on the shrunk machine from the checkpoint: the same global
         problem re-sharded over the survivors, fail-stop clauses stripped
         (the dead device is gone, not dying again), every other fault
         clause kept. *)
      let resume_env = { env with Env.faults = Some (strip_failstop spec) } in
      let resume_problem = { problem with Problem.iterations = remaining } in
      let resume = run_chaos ~env:resume_env resume_problem ~gpus:survivors in
      {
        diagnosed with
        r_resume = Some resume;
        r_total =
          Time.add first.Measure.base.Measure.total
            (Time.add cost resume.Measure.base.Measure.total);
        r_completed = resume.Measure.completed;
        r_degraded = resume.Measure.completed;
        r_work_saved = checkpoint * survivors;
      }
    end

(* The stencil interpretation of a first-class scenario: the workload's
   neutral strings resolved into a variant and a problem, everything below
   resolved by Measure.of_scenario. One path for the CLI and the daemon. *)
let of_scenario (sc : Cpufree_core.Scenario.t) =
  let ( let* ) = Result.bind in
  match sc.Cpufree_core.Scenario.workload with
  | Cpufree_core.Scenario.Dace _ -> Error "not a stencil scenario"
  | Cpufree_core.Scenario.Stencil { variant; dims; iters; no_compute } ->
    let* kind =
      Option.to_result (Variants.of_name variant)
        ~none:
          (Printf.sprintf "unknown variant %S; use one of: %s" variant
             (String.concat ", " (List.map Variants.name Variants.extended)))
    in
    let* dims = Problem.dims_of_string dims in
    let* arch, env = Measure.of_scenario sc in
    let problem = Problem.make ~compute:(not no_compute) dims ~iterations:iters in
    let gpus = sc.Cpufree_core.Scenario.gpus in
    let* () = Variants.feasible kind problem ~gpus in
    Ok (scenario_env ~arch ~env kind problem ~gpus)

let tolerance = 1e-9

let verify_env ?arch ?env kind problem ~gpus =
  if not problem.Problem.backed then Error "verify requires backed buffers"
  else begin
    let built = Variants.build kind problem ~gpus in
    let (_ : Measure.result) =
      Measure.run_env ?arch ?env
        ~label:(Variants.name kind)
        ~gpus ~iterations:problem.Problem.iterations built.Variants.program
    in
    match built.Variants.final () with
    | None -> Error "variant did not record final buffers"
    | Some buffers ->
      let reference = Compute.reference problem in
      let plane = Problem.plane_elems problem in
      let errors = Cpufree_core.Verify.create () in
      let mismatch = ref None in
      Array.iteri
        (fun pe buf ->
          let slab = Slab.make problem ~n_pes:gpus ~pe in
          match Slab.extract_owned slab buf with
          | None -> mismatch := Some (Printf.sprintf "PE %d returned a phantom buffer" pe)
          | Some (offset, values) ->
            Array.iteri
              (fun i actual ->
                Cpufree_core.Verify.add errors ~actual ~expected:reference.(plane + offset + i))
              values)
        buffers;
      match !mismatch with
      | Some msg -> Error msg
      | None -> Cpufree_core.Verify.result errors ~tolerance
  end
