(** Profitability search: the back half of the generic auto-offload pass.

    A {!plan} names one complete transformation sequence — whether to shard
    a global program across GPUs ({!Placement.shard_1d}), and how to execute
    it: on the host, as discrete CPU-controlled GPU kernels (with or without
    map fusion), or as a fused persistent kernel (with or without barrier
    relaxation and thread-block specialization). {!candidates} enumerates
    the plans applicable to a program (from {!Analysis.comm_form}), and
    {!search} picks the winner by simulating each distinct candidate
    program cheaply — phantom buffers, {!Cpufree_core.Measure.probe_env} —
    with a deterministic tie-break (first in candidate order wins, and the
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

val transform : plan -> Sdfg.t -> Sdfg.t
(** The plan's transformation sequence on an SDFG (already sharded when
    the plan asks for it), ending at the validated form the backend lowers
    — exactly the hand-built pipelines, selected by plan instead of by
    app/arm.
    @raise Invalid_argument when validation fails. *)

(** What the backend lowers for a plan: the transformed SDFG of a host or
    discrete plan, or the fused (and, when the plan asks, thread-block
    specialized) persistent program of a persistent one. Plain data, so two
    forms compare with [=]. *)
type form = Baseline_form of Sdfg.t | Persistent_form of Persistent_fusion.t

val form : plan -> Sdfg.t -> form
(** Sharding ({!Placement.shard_1d}, identity for [shard = false]) +
    [transform], then {!Persistent_fusion.apply} (+
    {!Persistent_fusion.specialize_tb}) for persistent plans.
    @raise Invalid_argument when a step fails. *)

val lower : ?backed:bool -> form -> Exec.built
(** Backend lowering: {!Exec.build_baseline} or {!Exec.build_persistent}. *)

val build : ?backed:bool -> plan -> Sdfg.t -> Exec.built
(** [lower (form plan sdfg)]. *)

type decision = {
  best : plan;
  predicted : Time.t;  (** simulated cost of [best] under the probe env *)
  evaluated : (plan * Time.t) list;  (** every candidate, in canonical order *)
  simulated : int;  (** distinct programs probed; at most [List.length evaluated] *)
  probed : Cpufree_core.Measure.result;
      (** [best]'s probe: what {!Cpufree_core.Measure.run} reports for its
          program under an environment without sinks or faults (labelled
          with the first plan of that program) *)
}

val search :
  ?arch:Cpufree_gpu.Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  Sdfg.t -> gpus:int -> iterations:int -> (decision, string) result
(** Evaluate every candidate and keep the cheapest (ties keep the earliest).
    Each distinct lowered program is simulated once; every candidate is
    still reported: a candidate whose {!form} is structurally equal to an
    earlier one's on the same GPU count takes that candidate's cost.
    Candidates that fail to compile or lower are skipped; [Error] when none
    survive or no candidate set applies. [env] contributes its topology; its
    sinks and fault plan are stripped by the probe. *)
