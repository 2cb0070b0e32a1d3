(** Scenario execution: the one dispatcher from a {!Cpufree_core.Scenario.t}
    to a {!Cpufree_core.Measure.job}, shared by the daemon and both
    measured CLI subcommands, plus the daemon's packaging of a run as a
    {!Protocol.run_payload}.

    {!job} interprets the workload through the layer that owns its names
    ([Harness.of_scenario] for stencil workloads,
    [Dace.Pipeline.of_scenario] for compiled benchmarks); both validate
    through {!Cpufree_core.Measure.of_scenario}. {!run} executes the job
    with {!Cpufree_core.Measure.run} — which alone picks the chaos path —
    and packages the measurement plus schema-validated artifacts.

    Deterministic: a fixed scenario yields a byte-identical payload on
    every call — the property the result
    cache and its self-check rest on. *)

val job : Cpufree_core.Scenario.t -> (Cpufree_core.Measure.job, string) result
(** [Error] on an invalid scenario or an uninterpretable workload (unknown
    variant/app/arm/dims, unresolvable architecture, infeasible
    geometry), with the reason. The job's environment is fresh: run it
    once. *)

val artifacts : Cpufree_obs.Sim_env.t -> (string option * string option, string) result
(** The environment's trace sink as Perfetto JSON and its metrics registry
    as JSON, each [None] without its sink; [Error] when a document fails
    its schema validator. *)

val run : Cpufree_core.Scenario.t -> (Protocol.run_payload, string) result
(** [Error] as {!job}, on an artifact that fails its schema validator, or
    on any exception the simulation raises (captured, never propagated —
    the daemon's workers must not die). *)
