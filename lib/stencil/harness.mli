(** Drivers for the stencil experiments: turn a variant into a
    {!Cpufree_core.Measure.job}, verify it against the sequential
    reference, and heal from a fail-stop kill.

    Every run goes through {!Cpufree_core.Measure.run}: build a job with
    {!scenario_env} (or {!of_scenario} from a first-class
    {!Cpufree_core.Scenario.t}, the CLI's and the daemon's path) and run it.
    Jobs share nothing — each run builds a private engine — so lists of
    them may run through the {!Cpufree_core.Parallel} domain pool with
    results in list order, bit-identical to running them sequentially. An
    [env] carrying trace/metrics sinks must not be shared between jobs of
    one parallel batch: each worker mutates its job's sinks. *)

val scenario_env :
  ?arch:Cpufree_gpu.Arch.t -> ?env:Cpufree_obs.Sim_env.t ->
  Variants.kind -> Problem.t -> gpus:int -> Cpufree_core.Measure.job
(** Build the variant as a job under [env] (default
    {!Cpufree_obs.Sim_env.default}), labelled with the variant's name. Its
    progress reader reports the per-PE last completed iteration — partial
    when a chaos run aborted.
    @raise Invalid_argument with the {!Variants.feasible} reason. *)

val of_scenario : Cpufree_core.Scenario.t -> (Cpufree_core.Measure.job, string) result
(** Interpret a first-class scenario spec as a stencil job: the workload's
    [variant] and [dims] strings resolved ({!Variants.of_name},
    {!Problem.dims_of_string}), architecture and environment from
    {!Cpufree_core.Measure.of_scenario}, the geometry checked by
    {!Variants.feasible}. [Error] on a dace workload, an invalid scenario or
    any unresolvable name, with a friendly message. The embedded
    environment is fresh — run the returned job once. *)

(** {2 Aliases perfbench still calls} *)

val run_scenario : Cpufree_core.Measure.job -> Cpufree_core.Measure.result
(** [(Measure.run job).result]. *)

val run_scenario_traced :
  Cpufree_core.Measure.job -> Cpufree_core.Measure.result * Cpufree_engine.Trace.t
(** [Measure.run ~traced:true job], result and engine trace. *)

val scenario_sim_env : Cpufree_core.Measure.job -> Cpufree_obs.Sim_env.t
(** The job's environment — where a caller collects the trace/metrics sinks
    after running it. *)

(** {2 Checkpoint/restart self-healing} *)

type resilient_run = {
  r_first : Cpufree_core.Measure.chaos;  (** the faulted attempt *)
  r_resume : Cpufree_core.Measure.chaos option;
      (** the survivor run resumed from the checkpoint, when a kill was
          diagnosed *)
  r_killed : int option;  (** the diagnosed dead PE, if any *)
  r_survivors : int;  (** PEs the resumed run executes on *)
  r_checkpoint : int;  (** iteration the survivors restored from *)
  r_restart_cost : Cpufree_engine.Time.t;
      (** modeled relaunch + dead-shard redistribution cost, the
          redistribution over the run's [arch]'s NVLink bandwidth *)
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
