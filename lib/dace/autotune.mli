(** Profitability search: the back half of the generic auto-offload pass.

    A {!plan} names one complete transformation sequence — whether to shard
    a global program across GPUs ({!Placement.shard_1d}), and how to execute
    it: on the host, as discrete CPU-controlled GPU kernels (with or without
    map fusion), or as a fused persistent kernel (with or without barrier
    relaxation and thread-block specialization). {!candidates} enumerates
    the plans applicable to a program (from {!Analysis.comm_form}), and
    {!search} picks the winner by simulating each candidate cheaply —
    phantom buffers, {!Cpufree_core.Measure.probe_env} — with a
    deterministic tie-break (first in candidate order wins, and the
    hand-built default is enumerated first), so the chosen plan is
    reproducible across runs. *)

module Time = Cpufree_engine.Time

type offload =
  | Offload_host  (** no offload: maps stay on the host CPU *)
  | Offload_discrete of { fusion : bool }
      (** GPUTransform (+ MapFusion): CPU-controlled discrete kernels *)
  | Offload_persistent of { relax : bool; specialize_tb : bool }
      (** the CPU-free pipeline: NVSHMEMArray + expansion +
          GPUPersistentKernel fusion *)

type plan = { shard : bool; gpus_used : int; offload : offload }

val plan_to_string : plan -> string
(** E.g. ["persistent+relax x4"], ["shard+persistent+relax x4"],
    ["gpu+fusion x1"], ["host x8"]. *)

val candidates : Sdfg.t -> gpus:int -> (plan list, string) result
(** The applicable plans in canonical tie-breaking order. NVSHMEM-form
    programs get the four persistent variants (hand-built default first);
    MPI-form programs choose among offload+fusion, offload, and host;
    communication-free global programs additionally get the four
    shard+persistent variants when {!Placement.shard_1d} accepts them and
    more than one GPU is available. [Error] on mixed MPI/NVSHMEM programs. *)

val prepare : plan -> Sdfg.t -> Sdfg.t
(** Apply the plan's sharding decision (identity for [shard = false]).
    @raise Invalid_argument when sharding was requested but fails. *)

val transform : plan -> Sdfg.t -> Sdfg.t
(** The plan's transformation sequence on an (already prepared) SDFG, ending
    at the validated form the backend lowers — exactly the hand-built
    pipelines, selected by plan instead of by app/arm.
    @raise Invalid_argument when validation fails. *)

val build : ?backed:bool -> plan -> Sdfg.t -> Exec.built
(** [prepare] + [transform] + backend lowering ({!Exec.build_baseline} for
    host/discrete plans, {!Persistent_fusion.apply} +
    {!Exec.build_persistent} for persistent ones). *)

type decision = {
  best : plan;
  predicted : Time.t;  (** simulated cost of [best] under the probe env *)
  evaluated : (plan * Time.t) list;  (** every candidate, in canonical order *)
}

val search :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  Sdfg.t -> gpus:int -> iterations:int -> (decision, string) result
(** Evaluate every candidate and keep the cheapest (ties keep the earliest).
    Candidates that fail to compile or lower are skipped; [Error] when none
    survive or no candidate set applies. [env] contributes its topology; its
    sinks and fault plan are stripped by the probe. *)
