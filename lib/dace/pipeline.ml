module G = Cpufree_gpu
module Measure = Cpufree_core.Measure

type app =
  | Jacobi1d of Programs.config1d
  | Jacobi2d of Programs.config2d
  | Heat3d of Programs.config3d

type arm = Baseline_mpi | Cpu_free

let app_name = function
  | Jacobi1d _ -> "jacobi1d"
  | Jacobi2d _ -> "jacobi2d"
  | Heat3d _ -> "heat3d"

let arm_name = function Baseline_mpi -> "dace-baseline" | Cpu_free -> "dace-cpu-free"

let iterations = function
  | Jacobi1d { tsteps; _ } -> tsteps
  | Jacobi2d { tsteps; _ } -> tsteps
  | Heat3d { tsteps3; _ } -> tsteps3

let frontend app arm ~gpus =
  match (app, arm) with
  | Jacobi1d cfg, Baseline_mpi -> Programs.jacobi1d_mpi cfg ~gpus
  | Jacobi1d cfg, Cpu_free -> Programs.jacobi1d_nvshmem cfg ~gpus
  | Jacobi2d cfg, Baseline_mpi -> Programs.jacobi2d_mpi cfg ~gpus
  | Jacobi2d cfg, Cpu_free -> Programs.jacobi2d_nvshmem cfg ~gpus
  | Heat3d cfg, Baseline_mpi -> Programs.heat3d_mpi cfg ~gpus
  | Heat3d cfg, Cpu_free -> Programs.heat3d_nvshmem cfg ~gpus

(* The hand-built arms as plans for the generic pass: compiling an app/arm
   pair is now Autotune.build of this plan — the same transformation
   sequence as before, selected by plan instead of hard-coded per arm. The
   autotuner enumerates these among its candidates, so for every app the
   searched plan can only match or beat the hand-built one. *)
let hand_plan ?(relax = true) ?(specialize_tb = false) arm ~gpus =
  match arm with
  | Baseline_mpi ->
    { Autotune.shard = false; gpus_used = gpus; offload = Autotune.Offload_discrete { fusion = true } }
  | Cpu_free ->
    {
      Autotune.shard = false;
      gpus_used = gpus;
      offload = Autotune.Offload_persistent { relax; specialize_tb };
    }

let compile_sdfg app arm ~gpus =
  Autotune.transform (hand_plan arm ~gpus) (frontend app arm ~gpus)

let compile ?backed ?relax ?specialize_tb app arm ~gpus =
  Autotune.build ?backed (hand_plan ?relax ?specialize_tb arm ~gpus) (frontend app arm ~gpus)

(* The CLI's accepted spellings; the one parser for both the scenario path
   and the CLI's code emission, verification and --auto. *)
let arm_of_name = function
  | "baseline" | "mpi" -> Ok Baseline_mpi
  | "cpu-free" | "cpufree" -> Ok Cpu_free
  | other -> Error (Printf.sprintf "unknown arm %S (expected baseline or cpu-free)" other)

let app_of_name name ~size ~iters =
  match name with
  | "jacobi1d" -> Ok (Jacobi1d { Programs.n_global = size; tsteps = iters })
  | "jacobi2d" -> Ok (Jacobi2d { Programs.nx_global = size; ny_global = size; tsteps = iters })
  | "heat3d" -> Ok (Heat3d { Programs.nx3 = size; ny3 = size; nz3 = size; tsteps3 = iters })
  | other -> Error (Printf.sprintf "unknown app %S (expected jacobi1d, jacobi2d or heat3d)" other)

type scenario = Measure.job = {
  sc_label : string;
  sc_gpus : int;
  sc_iterations : int;
  sc_arch : Cpufree_gpu.Arch.t;
  sc_env : Cpufree_obs.Sim_env.t;
  sc_program : Measure.program;
  sc_progress : unit -> int array;
}

let scenario_env ?arch ?env ?(specialize_tb = false) app arm ~gpus =
  let built = compile ~specialize_tb app arm ~gpus in
  let label =
    Printf.sprintf "%s/%s%s" (app_name app) (arm_name arm)
      (if specialize_tb then "/specialized" else "")
  in
  Measure.job ?arch ?env ~label ~gpus ~iterations:(iterations app) built.Exec.program

(* The dace interpretation of a first-class scenario: app/arm strings
   resolved, the program compiled, the label carrying the /specialized
   suffix the CLI prints. One path for the CLI and the daemon. *)
let of_scenario (sc : Cpufree_core.Scenario.t) =
  let ( let* ) = Result.bind in
  match sc.Cpufree_core.Scenario.workload with
  | Cpufree_core.Scenario.Stencil _ -> Error "not a dace scenario"
  | Cpufree_core.Scenario.Dace { app; arm; size; iters; specialize_tb } -> (
    let* arm = arm_of_name arm in
    let* app = app_of_name app ~size ~iters in
    let* arch, env = Measure.of_scenario sc in
    (* The frontends reject a decomposition the GPU count cannot split (a
       size that does not divide evenly): surface it as the scenario's
       error rather than an exception mid-request. *)
    match scenario_env ~arch ~env ~specialize_tb app arm ~gpus:sc.Cpufree_core.Scenario.gpus with
    | exception Invalid_argument msg -> Error msg
    | job -> Ok job)

let run_scenario_traced job =
  let o = Measure.run ~traced:true job in
  (o.Measure.result, Option.get o.Measure.trace)

let verify_env ?arch ?env ?relax ?specialize_tb app arm ~gpus =
  let built = compile ~backed:true ?relax ?specialize_tb app arm ~gpus in
  let (_ : Measure.result) =
    Measure.run_env ?arch ?env
      ~label:(Printf.sprintf "%s/%s/verify" (app_name app) (arm_name arm))
      ~gpus ~iterations:(iterations app) built.Exec.program
  in
  let errors = Cpufree_core.Verify.create () in
  let missing = ref None in
  let compare_rank ~pe ~local_len ~global_of_local =
    match built.Exec.read_array "A" ~pe with
    | None -> missing := Some (Printf.sprintf "rank %d: array A not found" pe)
    | Some buf ->
      if G.Buffer.is_phantom buf then missing := Some (Printf.sprintf "rank %d: phantom" pe)
      else
        for i = 0 to local_len - 1 do
          match global_of_local i with
          | None -> ()
          | Some expected -> Cpufree_core.Verify.add errors ~actual:(G.Buffer.get buf i) ~expected
        done
  in
  (match app with
  | Jacobi1d cfg ->
    let reference = Programs.reference1d cfg in
    let n = cfg.Programs.n_global / gpus in
    for pe = 0 to gpus - 1 do
      compare_rank ~pe ~local_len:(n + 2) ~global_of_local:(fun i ->
          (* Compare owned interior cells only; halos of edge ranks are
             never written and match by construction. *)
          if i >= 1 && i <= n then begin
            let g = (pe * n) + i in
            Some reference.(g)
          end
          else None)
    done
  | Jacobi2d cfg ->
    let reference = Programs.reference2d cfg in
    let pr, pc = Programs.rank_grid gpus in
    let h = cfg.Programs.ny_global / pr and w = cfg.Programs.nx_global / pc in
    let wd = w + 2 and gwd = cfg.Programs.nx_global + 2 in
    for pe = 0 to gpus - 1 do
      let ri = pe / pc and ci = pe mod pc in
      compare_rank ~pe
        ~local_len:((h + 2) * wd)
        ~global_of_local:(fun i ->
          let r = i / wd and cx = i mod wd in
          if r >= 1 && r <= h && cx >= 1 && cx <= w then begin
            let g = (((ri * h) + r) * gwd) + (ci * w) + cx in
            Some reference.(g)
          end
          else None)
    done
  | Heat3d cfg ->
    let reference = Programs.reference3d cfg in
    let lz = cfg.Programs.nz3 / gpus in
    let w = cfg.Programs.nx3 + 2 in
    let plane_w = w * (cfg.Programs.ny3 + 2) in
    for pe = 0 to gpus - 1 do
      compare_rank ~pe
        ~local_len:((lz + 2) * plane_w)
        ~global_of_local:(fun i ->
          let z = i / plane_w in
          let rem = i mod plane_w in
          let y = rem / w and x = rem mod w in
          if
            z >= 1 && z <= lz && y >= 1
            && y <= cfg.Programs.ny3
            && x >= 1
            && x <= cfg.Programs.nx3
          then begin
            let g = ((pe * lz) * plane_w) + i in
            Some reference.(g)
          end
          else None)
    done);
  match !missing with
  | Some m -> Error m
  | None -> Cpufree_core.Verify.result errors ~tolerance:1e-9

