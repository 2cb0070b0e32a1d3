(** Drivers for the stencil experiments: run a variant on a simulated
    machine, verify it against the sequential reference, and produce the
    weak/strong scaling series of Figures 6.1 and 6.2.

    Canonical entry points take a {!Cpufree_obs.Sim_env.t} (topology, fault
    plan, observability sinks, execution mode); {!of_scenario} builds a runnable
    scenario from a first-class {!Cpufree_core.Scenario.t}, so the CLI and
    the serving daemon execute stencil requests through one path. *)

val run_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t -> gpus:int -> Cpufree_core.Measure.result
(** Build the variant and run it through {!Cpufree_core.Measure.run_env}
    under [env] (default {!Cpufree_obs.Sim_env.default}). *)

val run_traced_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t -> gpus:int ->
  Cpufree_core.Measure.result * Cpufree_engine.Trace.t
(** As {!run_env}, additionally returning the engine's execution trace. *)

type chaos_run = {
  chaos : Cpufree_core.Measure.chaos;
  progress : int array;
      (** per-PE last completed iteration at termination — partial when the
          run aborted (graceful degradation) *)
}

val run_chaos_env :
  ?arch:Cpufree_gpu.Arch.t -> ?watchdog:Cpufree_engine.Time.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t -> gpus:int -> chaos_run
(** Run a variant under the environment's deterministic fault-injection plan
    ({!Cpufree_core.Measure.run_chaos_env}; [env.faults] must be set). A run
    that livelocks on a lost signal is converted by the stall watchdog into a
    diagnosed abort; the per-iteration progress each PE reached is reported
    either way. *)

(** {2 Checkpoint/restart self-healing} *)

type resilient_run = {
  r_first : chaos_run;  (** the faulted attempt *)
  r_resume : chaos_run option;
      (** the survivor run resumed from the checkpoint, when a kill was
          diagnosed *)
  r_killed : int option;  (** the diagnosed dead PE, if any *)
  r_survivors : int;  (** PEs the resumed run executes on *)
  r_checkpoint : int;  (** iteration the survivors restored from *)
  r_restart_cost : Cpufree_engine.Time.t;
      (** modeled relaunch + dead-shard redistribution cost *)
  r_total : Cpufree_engine.Time.t;
      (** end-to-end: faulted attempt + restart cost + resumed run *)
  r_completed : bool;  (** the workload finished (possibly degraded) *)
  r_degraded : bool;  (** finished on fewer PEs than it started with *)
  r_work_saved : int;
      (** survivor iterations not redone thanks to checkpointing:
          [checkpoint * survivors] *)
}

val run_resilient :
  ?arch:Cpufree_gpu.Arch.t -> ?watchdog:Cpufree_engine.Time.t ->
  ?env:Cpufree_obs.Sim_env.t -> checkpoint_every:int ->
  Variants.kind -> Problem.t -> gpus:int -> resilient_run
(** Self-healing driver: run the variant under [env]'s fault plan
    (which must be set), snapshotting state every [checkpoint_every]
    iterations. A fault-free (or survived) run returns unchanged — the
    control stays byte-identical. When the run aborts on a diagnosed
    fail-stop GPU kill ([kill:peN] trigger), the harness restores the
    last checkpoint at or below the least-advanced survivor's progress,
    re-shards the global problem over the survivors (paying a modeled
    relaunch + shard-redistribution cost), strips the already-fired
    fail-stop clauses from the spec, and resumes for the remaining
    iterations. Every quantity is deterministic for a fixed
    [(spec, seed)]. Single-kill
    scenarios are supported: the first diagnosed kill drives recovery. *)

val verify_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t -> gpus:int -> (float, string) result
(** Run with backed buffers and compare the distributed result against
    {!Compute.reference}: [Ok max_abs_error] (should be ~1e-6 of magnitude)
    or [Error description]. The problem must have [backed = true]. *)

val tolerance : float
(** Acceptance threshold for {!verify_env} (single-precision-style slack on
    accumulated double arithmetic). *)

(** {2 Scenario lists}

    A scenario is one fully specified simulation (variant × problem × GPU
    count, plus an optional machine/fault environment). Scenarios share
    nothing — each run builds a private engine — so lists of them execute
    through the {!Cpufree_core.Parallel} domain pool with results in list
    order, bit-identical to running them sequentially. An [env] carrying
    trace/metrics sinks must not be shared between scenarios of one
    parallel batch: each worker mutates its scenario's sinks. *)

type scenario

val scenario_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t -> gpus:int -> scenario

val of_scenario : Cpufree_core.Scenario.t -> (scenario, string) result
(** Interpret a first-class scenario spec as a stencil run: the workload's
    [variant] and [dims] strings resolved ({!Variants.of_name},
    {!Problem.dims_of_string}), architecture and environment built by
    {!Cpufree_core.Measure.of_scenario}. [Error] on a dace workload or any
    unresolvable name, with a friendly message. The embedded environment is
    fresh — run the returned scenario once. *)

val run_scenario : scenario -> Cpufree_core.Measure.result

val run_scenario_traced :
  scenario -> Cpufree_core.Measure.result * Cpufree_engine.Trace.t

val run_scenario_chaos :
  ?watchdog:Cpufree_engine.Time.t -> scenario -> chaos_run
(** Run one scenario under its environment's fault plan
    ({!run_chaos_env}; the scenario's [env.faults] must be set). *)

val scenario_sim_env : scenario -> Cpufree_obs.Sim_env.t
(** The environment embedded in a scenario — where a caller collects the
    trace/metrics sinks after running it. *)

val run_many : ?jobs:int -> scenario list -> Cpufree_core.Measure.result list
(** Execute every scenario on the domain pool ([?jobs] as in
    {!Cpufree_core.Parallel.map}; defaults to [CPUFREE_JOBS] or the host
    core count). Results are in input order. *)

val run_many_traced :
  ?jobs:int -> scenario list -> (Cpufree_core.Measure.result * Cpufree_engine.Trace.t) list

type scaling_point = { gpus : int; result : Cpufree_core.Measure.result }

val weak_scaling :
  ?jobs:int -> ?arch:Cpufree_gpu.Arch.t -> ?topology:Cpufree_machine.Topology.spec ->
  ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> base:Problem.t ->
  gpu_counts:int list -> scaling_point list
(** Weak scaling: grow the base (1-GPU) domain by {!Problem.weak_scale} for
    each GPU count. Counts must be powers of two. Points run on the domain
    pool under [env] ([topology], the pre-[Sim_env] spelling, overrides the
    env's field when both are given). *)

val strong_scaling :
  ?jobs:int -> ?arch:Cpufree_gpu.Arch.t -> ?topology:Cpufree_machine.Topology.spec ->
  ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t ->
  gpu_counts:int list -> scaling_point list
(** Strong scaling: the same global domain at every GPU count. *)

val weak_efficiency : scaling_point list -> (int * float) list
(** Per point: time(1 GPU) / time(n GPUs) — 1.0 is perfect weak scaling. *)
