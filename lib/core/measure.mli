(** Experiment harness: build a simulated machine, run a host program on it,
    and report the quantities the paper's evaluation plots.

    The canonical entry points ([run_env], [run_chaos_env]) take a
    {!Cpufree_obs.Sim_env.t} bundling topology, fault plan, observability
    sinks and execution mode; {!of_scenario} builds that environment (plus the
    resolved architecture and GPU count) from a first-class {!Scenario.t},
    so the CLI and the serving daemon drive runs through one path. *)

type result = {
  label : string;
  gpus : int;
  iterations : int;
  total : Cpufree_engine.Time.t;  (** simulated wall-clock of the run *)
  per_iter : Cpufree_engine.Time.t;
  comm : Cpufree_engine.Time.t;  (** wall-clock with ≥1 device communicating *)
  overlap : float;  (** fraction of comm hidden under compute *)
  bytes_moved : int;
}

val run_env :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  label:string -> gpus:int -> iterations:int ->
  (Cpufree_gpu.Runtime.ctx -> unit) -> result
(** Create an engine, a runtime context with [gpus] devices arranged per
    [env] (topology, fault plan, observability, execution mode — default
    {!Cpufree_obs.Sim_env.default}: NVSwitch HGX, no faults, no sinks, mode
    from [CPUFREE_PDES]), run the given host program as the "main" process
    to completion, and measure. Deterministic.

    When [env.trace] is set, the run's spans (and, if the sink was created
    with [~flows:true], put→delivery flow arrows and fault instant markers)
    are merged into it in canonical order. When [env.metrics] is set, the
    simulated layers register and update instruments in it and the engine's
    own counters ([engine.events], [engine.stall_scans], and the constant
    [engine.windows], [engine.solo_windows], [engine.opt.*] and
    [engine.partitions] the retired parallel drivers used to fill) are
    folded in at the end. With neither set the run
    is byte-identical to the legacy path. Note that a flow-enabled sink adds
    remote-delivery spans on destination lanes, which participate in the
    comm/overlap accounting of the returned {!result}. *)

val run_traced_env :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  label:string -> gpus:int -> iterations:int ->
  (Cpufree_gpu.Runtime.ctx -> unit) -> result * Cpufree_engine.Trace.t
(** As {!run_env}, additionally returning the engine's own execution trace
    (spans in recording order — what the timeline renderers consume). The
    environment's sinks are still honoured. *)

val probe_env :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  label:string -> gpus:int -> iterations:int ->
  (Cpufree_gpu.Runtime.ctx -> unit) -> Cpufree_engine.Time.t
(** Cheap cost probe for candidate evaluation (the autotuner's oracle): run
    the program under {!Cpufree_obs.Sim_env.probe}[ env] — observability
    sinks and fault plan stripped — and return only the simulated
    wall-clock. *)

type run_spec = {
  rs_arch : Cpufree_gpu.Arch.t;  (** resolved device architecture *)
  rs_env : Cpufree_obs.Sim_env.t;
      (** a fresh environment for one run: sinks per the scenario's
          artifact booleans — never share it between concurrent runs *)
  rs_gpus : int;
}
(** The measurement-layer view of a {!Scenario.t}: everything below the
    workload, resolved and ready to pass to {!run_env} /
    {!run_chaos_env}. *)

val of_scenario : Scenario.t -> (run_spec, string) Stdlib.result
(** Validate the scenario ({!Scenario.validate} and
    {!Scenario.check_fault_vertices}: [Error] with the reason), resolve its
    architecture name and build its environment ({!Scenario.env}). Workload interpretation (variant, dims, app, arm)
    belongs to the layer that owns those names — [Harness.of_scenario] and
    [Dace.Pipeline.of_scenario] build on this. *)

type chaos = {
  base : result;
      (** Metrics up to the point the run ended — partial when aborted, so a
          chaos figure can still plot how far a scheme got. *)
  completed : bool;  (** [false] when the run aborted on a {!Cpufree_engine.Engine.Stall}
                         or deadlock. *)
  failure : string list;  (** Diagnosis lines when aborted (stall report / deadlock). *)
  trigger : string option;  (** The stall trigger, or ["deadlock"]. *)
  dropped : int;  (** Deliveries the fault plan dropped. *)
  delayed : int;  (** Deliveries the fault plan delayed. *)
  resent : int;  (** Lost deliveries recovered by retransmission. *)
  retried : int;  (** Resilient-wait timeout/backoff rounds. *)
}

val run_chaos_env :
  ?arch:Cpufree_gpu.Arch.t ->
  ?watchdog:Cpufree_engine.Time.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  label:string -> gpus:int -> iterations:int ->
  (Cpufree_gpu.Runtime.ctx -> unit) -> chaos
(** As {!run_env}, but under the environment's deterministic fault-injection
    plan: [Fault.activate env.faults ~seed:env.fault_seed ~gpus] drives link
    degradation, stragglers, and signal/put delivery faults, and the engine
    runs with a stall watchdog (default
    {!Cpufree_fault.Fault.default_watchdog} of the spec). A run that
    livelocks is converted into a diagnosed abort rather than exhausting the
    event queue; metrics accumulated up to the abort are still reported, the
    abort is marked with a [stall:] instant on the host lane of a
    flow-enabled sink, and fault-path totals ([fault.dropped] etc.) are
    folded into [env.metrics]. Bit-identical across repeats for a fixed
    [env.fault_seed].

    @raise Invalid_argument when [env.faults] is [None]. *)

val best_of :
  runs:int ->
  (unit -> result) -> result
(** Re-run an experiment and keep the fastest result — the paper reports the
    minimum of 5 consecutive runs. (The simulator is deterministic, so this
    is an API-fidelity convenience.) *)

val speedup_pct : baseline:result -> ours:result -> float
(** The paper's speedup formula: [(T_b - T_o) / T_b * 100]. *)

val pp_result : Format.formatter -> result -> unit

val pp_table : Format.formatter -> header:string -> result list -> unit
(** Aligned text table of results (one experiment series). *)
