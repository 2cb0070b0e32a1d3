(** The simulation environment: one record bundling every cross-cutting knob
    that used to thread through the stack as separate optional arguments —
    machine topology, fault plan and seed, and the trace and metrics sinks.

    Entry points across [Measure], the stencil [Harness], [Dace.Pipeline]
    and [Runtime.create] accept a [?env] built here. An absent field means "default": no faults,
    no observability, HGX topology. *)

type t = {
  topology : Cpufree_machine.Topology.spec option;
      (** machine graph (default: single-node NVSwitch HGX) *)
  faults : Cpufree_fault.Fault.spec option;  (** fault-injection spec, if any *)
  fault_seed : int;  (** seed for activating [faults] (default 0) *)
  trace : Cpufree_engine.Trace.t option;
      (** user trace sink: when present, runs record v2 traces (flows,
          delivery spans, fault/stall markers) and merge them here
          canonically at the end of the run *)
  metrics : Metrics.t option;
      (** metrics registry: when present, every layer registers and bumps
          its instruments here *)
}

val default : t
(** All fields absent / zero: a plain HGX run. *)

val make :
  ?topology:Cpufree_machine.Topology.spec ->
  ?faults:Cpufree_fault.Fault.spec ->
  ?fault_seed:int ->
  ?trace:Cpufree_engine.Trace.t ->
  ?metrics:Metrics.t ->
  unit -> t

val quiet : t -> t
(** [env] with the observability sinks removed, for auxiliary runs
    (verification, candidate probing) that must not pollute the main run's
    artifacts. *)

val probe : t -> t
(** The candidate-evaluation environment derived from [env]: sinks and fault
    plan removed. *)
