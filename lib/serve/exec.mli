(** Scenario execution for the daemon: interpret a
    {!Cpufree_core.Scenario.t} through the same [of_scenario] constructors
    the CLI uses ([Harness.of_scenario] for stencil workloads,
    [Dace.Pipeline.of_scenario] for compiled benchmarks), run it — under
    the fault plan when one is present — and package the measurement plus
    schema-validated artifacts as a {!Protocol.run_payload}.

    Deterministic: a fixed scenario yields a byte-identical payload on
    every call — the property the result
    cache and its self-check rest on. *)

val run : Cpufree_core.Scenario.t -> (Protocol.run_payload, string) result
(** [Error] on an uninterpretable workload (unknown variant/app/arm/dims,
    unresolvable architecture), an artifact that fails its schema
    validator, or any exception the simulation raises (captured, never
    propagated — the daemon's workers must not die). *)
