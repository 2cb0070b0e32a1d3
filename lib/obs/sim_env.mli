(** The simulation environment: one record bundling every cross-cutting knob
    that used to thread through the stack as separate optional arguments —
    machine topology, fault plan and seed, trace and metrics sinks, and the
    execution mode.

    Entry points across [Measure], the stencil [Harness], [Dace.Pipeline]
    and [Runtime.create] accept a [?env] built here. An absent field means "default": no faults,
    no observability, HGX topology, execution mode from the [CPUFREE_PDES]
    environment variable. *)

type pdes = [ `Seq ]
(** The execution mode. The sequential event loop is the only driver; the
    mode survives so that [pdes=seq] scenarios, [--pdes seq] and
    [CPUFREE_PDES=seq] keep parsing, and every other value is rejected. *)

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
  pdes : pdes option;
      (** execution mode; [None] defers to the [CPUFREE_PDES] variable *)
}

val default : t
(** All fields absent / zero: plain sequential-or-env-var HGX run. *)

val make :
  ?topology:Cpufree_machine.Topology.spec ->
  ?faults:Cpufree_fault.Fault.spec ->
  ?fault_seed:int ->
  ?trace:Cpufree_engine.Trace.t ->
  ?metrics:Metrics.t ->
  ?pdes:pdes ->
  unit -> t

val pdes_to_string : pdes -> string
(** Canonical lowercase name: ["seq"]. *)

val pdes_of_string : string -> (pdes, string) result
(** Parse a user-supplied mode name (CLI flags, env vars): [""], ["seq"]
    and ["sequential"] are [`Seq]. [Error] carries a friendly message
    listing every valid spelling. *)

val pdes_of_env_var : unit -> pdes
(** Parse [CPUFREE_PDES]: unset, [""], ["seq"] and ["sequential"] are
    [`Seq].
    @raise Invalid_argument on anything else, with a message listing every
    valid spelling. *)

val resolve_pdes : t -> pdes
(** The environment's execution mode, falling back to {!pdes_of_env_var}
    when the [pdes] field is [None]. *)

val quiet : t -> t
(** [env] with the observability sinks removed, for auxiliary runs
    (verification, candidate probing) that must not pollute the main run's
    artifacts. *)

val probe : t -> t
(** The candidate-evaluation environment derived from [env]: sinks and fault
    plan removed. *)
