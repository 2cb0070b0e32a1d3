(** End-to-end compilation pipelines (§6.2.1) and their jobs.

    - Baseline: frontend (MPI form) → GPUTransform → MapFusion → validate →
      CPU-controlled backend.
    - CPU-Free: frontend (NVSHMEM form) → GPUTransform → NVSHMEMArray →
      in-kernel expansion → validate (symmetric storage enforced) →
      GPUPersistentKernel fusion → persistent backend.

    A compiled app/arm pair is a {!Cpufree_core.Measure.job}
    ({!scenario_env}, or {!of_scenario} from a first-class
    {!Cpufree_core.Scenario.t}); {!Cpufree_core.Measure.run} runs it. *)

type app =
  | Jacobi1d of Programs.config1d
  | Jacobi2d of Programs.config2d
  | Heat3d of Programs.config3d
type arm = Baseline_mpi | Cpu_free

val app_name : app -> string
val arm_name : arm -> string

val frontend : app -> arm -> gpus:int -> Sdfg.t
(** The program as written (before any transformation). *)

val hand_plan : ?relax:bool -> ?specialize_tb:bool -> arm -> gpus:int -> Autotune.plan
(** The arm's hand-built pipeline as a plan for the generic pass:
    [Offload_discrete { fusion = true }] for the baseline,
    [Offload_persistent { relax; specialize_tb }] for CPU-free. {!compile}
    is [Autotune.build] of this plan, and {!Autotune.search} enumerates it
    among its candidates — so the searched plan matches or beats the
    hand-built one by construction. *)

val compile : ?backed:bool -> ?relax:bool -> ?specialize_tb:bool -> app -> arm -> gpus:int -> Exec.built
(** Run the full pipeline for an arm.

    @param relax barrier relaxation in persistent fusion (default true)
    @param specialize_tb apply {!Persistent_fusion.specialize_tb} so
      communication runs on a dedicated thread-block group concurrently with
      the interior computation (default false: the paper's conservative
      single-thread schedule, §5.3.2)
    @raise Invalid_argument if validation or loop detection fails. *)

val compile_sdfg : app -> arm -> gpus:int -> Sdfg.t
(** The transformed SDFG right before backend lowering (for inspection and
    code emission). *)

val verify_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  ?relax:bool -> ?specialize_tb:bool -> app -> arm -> gpus:int ->
  (float, string) result
(** Compile with real data, run under [env], and compare every rank's final
    [A] against the sequential reference: [Ok max_abs_err] or
    [Error reason]. *)

val arm_of_name : string -> (arm, string) result
(** [baseline]/[mpi] or [cpu-free]/[cpufree]; [Error] names the accepted
    spellings. *)

val app_of_name : string -> size:int -> iters:int -> (app, string) result
(** [jacobi1d] ([size] elements), [jacobi2d] ([size]²) or [heat3d]
    ([size]³), [iters] time steps. *)

type scenario = Cpufree_core.Measure.job = {
  sc_label : string;
  sc_gpus : int;
  sc_iterations : int;
  sc_arch : Cpufree_gpu.Arch.t;
  sc_env : Cpufree_obs.Sim_env.t;
  sc_program : Cpufree_core.Measure.program;
  sc_progress : unit -> int array;
}
(** The job type, re-exported so [Pipeline.sc_*] field paths resolve. *)

val scenario_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t -> ?specialize_tb:bool ->
  app -> arm -> gpus:int -> scenario
(** Compile (phantom buffers) as a job under [env] (default
    {!Cpufree_obs.Sim_env.default}), labelled [app/arm] — plus
    [/specialized] with thread-block specialization — as the CLI prints it.
    @raise Invalid_argument if the frontend or validation rejects the
    decomposition. *)

val of_scenario : Cpufree_core.Scenario.t -> (scenario, string) result
(** Resolve the workload's [app]/[arm] strings ({!app_of_name},
    {!arm_of_name}), validate the scenario and build architecture and
    environment via {!Cpufree_core.Measure.of_scenario}, and compile the
    job. [Error] on a stencil workload, an invalid scenario, any
    unresolvable name, or a size the GPU count cannot split, with a
    friendly message. *)

val run_scenario_traced :
  scenario -> Cpufree_core.Measure.result * Cpufree_engine.Trace.t
(** [Measure.run ~traced:true job], result and engine trace (perfbench
    still calls it). *)

val iterations : app -> int
