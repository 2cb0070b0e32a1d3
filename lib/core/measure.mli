(** Experiment harness: build a simulated machine, run a host program on it,
    and report the quantities the paper's evaluation plots.

    There is one run path: a {!job} bundles everything a run needs and
    {!run} executes it, deciding alone whether it takes the chaos path and
    whether the engine records spans. {!of_scenario} validates a
    first-class {!Scenario.t}; [Harness.of_scenario] and
    [Dace.Pipeline.of_scenario] build their jobs on it, and
    [Serve.Exec.job] dispatches between them for the CLI and the daemon. *)

type result = {
  label : string;
  gpus : int;
  iterations : int;
  total : Cpufree_engine.Time.t;  (** simulated wall-clock of the run *)
  per_iter : Cpufree_engine.Time.t;
  compute : Cpufree_engine.Time.t;  (** wall-clock with ≥1 device computing *)
  comm : Cpufree_engine.Time.t;  (** wall-clock with ≥1 device communicating *)
  overlap : float;  (** fraction of comm hidden under compute *)
  bytes_moved : int;
}

type program = Cpufree_gpu.Runtime.ctx -> (unit -> unit) -> unit
(** A host program, written as steps: it is called on the run's main
    process with the continuation to run once it is done. *)

type job = {
  sc_label : string;  (** what the result is labelled (and the CLI prints) *)
  sc_gpus : int;
  sc_iterations : int;
  sc_arch : Cpufree_gpu.Arch.t;  (** resolved device architecture *)
  sc_env : Cpufree_obs.Sim_env.t;
      (** topology, fault plan and observability sinks; a
          fresh environment per job — never share its sinks between
          concurrent runs *)
  sc_program : program;  (** the host program *)
  sc_progress : unit -> int array;
      (** after the run: per-PE last completed iteration ([[||]] when the
          program does not report progress) *)
}
(** One fully specified run. A job's program may keep per-run state (final
    buffers, progress), so run each job once. *)

val job :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  ?progress:(unit -> int array) ->
  label:string -> gpus:int -> iterations:int ->
  program -> job
(** Defaults: A100 on HGX, {!Cpufree_obs.Sim_env.default} (NVSwitch HGX,
    no faults, no sinks), no progress reporting. *)

val of_scenario :
  Scenario.t -> (Cpufree_gpu.Arch.t * Cpufree_obs.Sim_env.t, string) Stdlib.result
(** Validate the scenario ({!Scenario.validate} and
    {!Scenario.check_fault_vertices}: [Error] with the reason), resolve its
    architecture name and build a fresh environment ({!Scenario.env}).
    Workload names (variant, dims, app, arm) are left to the layers that
    own them. *)

type chaos = {
  base : result;
      (** Metrics up to the point the run ended — partial when aborted, so a
          chaos figure can still plot how far a scheme got. *)
  completed : bool;  (** [false] when the run aborted (stall, deadlock, kill, partition). *)
  failure : string list;  (** Diagnosis lines when aborted (stall report / deadlock). *)
  trigger : string option;  (** The stall trigger, ["kill:peN"], or ["deadlock"]. *)
  dropped : int;  (** Deliveries the fault plan dropped. *)
  delayed : int;  (** Deliveries the fault plan delayed. *)
  resent : int;  (** Lost deliveries recovered by retransmission. *)
  retried : int;  (** Resilient-wait timeout/backoff rounds. *)
  progress : int array;  (** The job's progress reader at termination. *)
}

type outcome = {
  result : result;
  trace : Cpufree_engine.Trace.t option;
      (** the trace the engine recorded into (spans in recording order —
          what the timeline renderers consume): the environment's sink when
          it carries one, else a private trace iff [~traced:true] *)
  chaos : chaos option;  (** present iff the environment carries a fault plan *)
}

val run : ?traced:bool -> job -> outcome
(** Create an engine and a runtime context with the job's GPUs arranged per
    its environment, run the program as the "main" step process to
    completion,
    and measure. Deterministic.

    {b Observability.} When [env.trace] is set, the engine records into
    it: the run's spans and, if the sink was created with [~flows:true],
    put→delivery flow arrows and fault instant markers, in recording
    order (the Perfetto exporter sorts them canonically). When
    [env.metrics] is set, the simulated layers update instruments in it and
    the engine's counters ([engine.events], [engine.stall_scans], and the
    constant [engine.windows], [engine.solo_windows], [engine.opt.*],
    [engine.partitions] of the retired parallel drivers, kept until the
    benchmark re-records its metrics hashes) are folded in.
    Without a sink, [~traced:true] (default [false]) records a private
    engine trace without flows; the result is the same either way.
    [compute], [comm] and [overlap] come from the engine's busy log
    ({!Cpufree_engine.Engine.busy}); a flow-enabled sink makes NVSHMEM log
    its deliveries as communication too, so they count there.

    {b Chaos.} When [env.faults] is set, [Fault.activate env.faults
    ~seed:env.fault_seed ~gpus] drives link degradation, stragglers, and
    signal/put delivery faults, and the engine runs with the stall
    watchdog {!Cpufree_fault.Fault.default_watchdog} of the spec. A run
    that livelocks, deadlocks, loses a GPU or partitions the fabric is
    converted into a diagnosed abort ([chaos.completed = false]) rather
    than an exception; metrics up to the abort are still reported, the
    abort is marked with a [stall:] instant on the host lane of a
    flow-enabled sink, and fault-path totals ([fault.dropped] etc.) are
    folded into [env.metrics]. Bit-identical across repeats for a fixed
    [env.fault_seed]. *)

val run_env :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  label:string -> gpus:int -> iterations:int ->
  program -> result
(** [(run (job ...)).result]. *)

val probe_env :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  label:string -> gpus:int -> iterations:int ->
  program -> result
(** Cheap cost probe for candidate evaluation (the autotuner's oracle): run
    the program under {!Cpufree_obs.Sim_env.probe}[ env] — observability
    sinks and fault plan stripped. Its [total] is the candidate's cost; the
    whole result is what a run of the same program under an environment
    without sinks or faults measures. *)

val speedup_pct : baseline:result -> ours:result -> float
(** The paper's speedup formula: [(T_b - T_o) / T_b * 100]. *)

val pp_result : Format.formatter -> result -> unit

val pp_table : Format.formatter -> header:string -> result list -> unit
(** Aligned text table of results (one experiment series). *)
