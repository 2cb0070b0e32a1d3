(** End-to-end compilation pipelines (§6.2.1) and experiment drivers.

    - Baseline: frontend (MPI form) → GPUTransform → MapFusion → validate →
      CPU-controlled backend.
    - CPU-Free: frontend (NVSHMEM form) → GPUTransform → NVSHMEMArray →
      in-kernel expansion → validate (symmetric storage enforced) →
      GPUPersistentKernel fusion → persistent backend. *)

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

val run_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  app -> arm -> gpus:int -> Cpufree_core.Measure.result
(** Compile (phantom buffers) and execute on the simulated machine under
    [env] (topology, fault plan, observability sinks, execution mode — default
    {!Cpufree_obs.Sim_env.default}), via {!Cpufree_core.Measure.run_env}. *)

val run_traced_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  app -> arm -> gpus:int ->
  Cpufree_core.Measure.result * Cpufree_engine.Trace.t
(** As {!run_env}, additionally returning the engine's execution trace. *)

val verify_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  ?relax:bool -> ?specialize_tb:bool -> app -> arm -> gpus:int ->
  (float, string) result
(** Compile with real data, run under [env], and compare every rank's final
    [A] against the sequential reference: [Ok max_abs_err] or
    [Error reason]. *)

type scenario = {
  sc_label : string;
      (** what the CLI prints: [app/arm], plus [/specialized] when
          thread-block specialization is on *)
  sc_gpus : int;
  sc_iterations : int;
  sc_arch : Cpufree_gpu.Arch.t;
  sc_env : Cpufree_obs.Sim_env.t;
      (** fresh, with sinks per the scenario's artifact booleans — run it
          once *)
  sc_program : Cpufree_gpu.Runtime.ctx -> unit;  (** the compiled program *)
}
(** A first-class {!Cpufree_core.Scenario.t} interpreted and compiled as a
    dace run — the single execution path shared by the CLI and the serving
    daemon. *)

val of_scenario : Cpufree_core.Scenario.t -> (scenario, string) result
(** Resolve the workload's [app]/[arm] strings (the CLI's accepted
    spellings), compile the program, and build architecture and environment
    via {!Cpufree_core.Measure.of_scenario}. [Error] on a stencil workload,
    an invalid scenario, any unresolvable name, or a size the GPU count
    cannot split, with a friendly message. *)

val run_scenario : scenario -> Cpufree_core.Measure.result

val run_scenario_traced :
  scenario -> Cpufree_core.Measure.result * Cpufree_engine.Trace.t

val run_scenario_chaos :
  ?watchdog:Cpufree_engine.Time.t -> scenario -> Cpufree_core.Measure.chaos
(** Run under the scenario environment's fault plan
    ({!Cpufree_core.Measure.run_chaos_env}; [sc_env.faults] must be set). *)

val iterations : app -> int
