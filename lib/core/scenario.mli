(** First-class scenario specs: one record for everything the CLI's flag
    table assembles ad hoc — workload, architecture, machine topology, GPU
    count, fault plan and seed, and which observability artifacts
    the run should produce.

    A scenario is the unit of request for both transports: the [cpufree_run]
    subcommands parse their flags into a [t], and the [cpufree_serve] daemon
    receives a [t] as its {!to_string} line, a string field of a JSON request
    frame, and parses it with {!of_string} — both then execute through the
    same [of_scenario] constructors ({!Measure.of_scenario},
    [Harness.of_scenario], [Dace.Pipeline.of_scenario]).

    Workload parameters are neutral strings and integers ([variant], [dims],
    [app], [arm]) because this module sits below the stencil and dace
    layers; their spelling is validated by the downstream [of_scenario]
    constructor that actually interprets them. Everything the core can
    check — architecture name, topology/GPU-count combination, positive
    counts — is checked here by {!validate} (and therefore by
    {!of_string}). *)

type workload =
  | Stencil of { variant : string; dims : string; iters : int; no_compute : bool }
      (** One hand-written stencil variant on a [2d:NXxNY] / [3d:NXxNYxNZ]
          domain; [no_compute] measures the pure communication floor. *)
  | Dace of { app : string; arm : string; size : int; iters : int; specialize_tb : bool }
      (** One compiled benchmark program ([jacobi1d]/[jacobi2d]/[heat3d])
          through a pipeline arm ([baseline]/[cpu-free]). *)

type t = {
  workload : workload;
  arch : string;  (** device architecture name ([a100]/[h100]) *)
  topology : Cpufree_machine.Topology.spec;
  gpus : int;
  faults : Cpufree_fault.Fault.spec option;
  fault_seed : int;
  trace : bool;  (** produce a Perfetto trace artifact *)
  metrics : bool;  (** produce a metrics-registry artifact *)
}

val make :
  ?arch:string ->
  ?topology:Cpufree_machine.Topology.spec ->
  ?gpus:int ->
  ?faults:Cpufree_fault.Fault.spec ->
  ?fault_seed:int ->
  ?trace:bool ->
  ?metrics:bool ->
  workload -> t
(** Defaults mirror the CLI's: [a100], [hgx], 8 GPUs, no faults, seed 1,
    no artifacts. *)

val validate : t -> (unit, string) result
(** Everything checkable below the workload layers without building the
    machine: workload strings that {!to_string} can carry (non-empty, no
    whitespace, no [=]), known architecture, instantiable topology/GPU
    combination, positive counts, and kill and straggler GPU ids below
    [gpus]. Whenever it is [Ok], [of_string (to_string t) = Ok t]. *)

val check_fault_vertices : t -> Cpufree_gpu.Arch.t -> (unit, string) result
(** Whether every link and switch failure names a vertex of the scenario's
    topology. Instantiates the topology when there are such clauses, so it
    runs once per run, not on every parse. *)

val env : t -> Cpufree_obs.Sim_env.t
(** A fresh simulation environment for one run of this scenario: topology,
    faults, seed and execution mode copied; a new flow-enabled trace sink iff
    [trace], a new metrics registry iff [metrics] — exactly the environment
    the CLI builds from [--trace-out]/[--metrics-out]. Never share the
    returned environment between concurrent runs: each run mutates its
    sinks. *)

val arch_of : t -> (Cpufree_gpu.Arch.t, string) result
(** Resolve the architecture name. *)

val to_string : t -> string
(** Canonical flag-like line: the workload kind followed by fixed-order
    [key=value] tokens, e.g.
    [stencil variant=cpu-free dims=2d:512x512 iters=30 no-compute=false
    arch=a100 topology=hgx gpus=4 faults=none fault-seed=1 M trace=off
    metrics=off], where [M] is the constant token of the retired
    execution mode (its text is in [scenario.ml]). Round-trips through
    {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse {!to_string}'s grammar: leading workload kind ([stencil]/[dace]),
    then [key=value] tokens in any order; missing keys take {!make}'s
    defaults; unknown keys, malformed values (the execution-mode key
    accepts only the value {!to_string} prints), or a {!validate} failure
    are [Error]s. [parse (print t) = Ok t] for every valid [t]. *)

val digest : t -> string
(** The result-cache key: the hex md5 of ["scenario/v2|"] followed by
    {!to_string}. The artifact booleans are part of it because they change
    the response payload. {!to_string} is canonical, so equal digests mean
    equal scenarios. *)
