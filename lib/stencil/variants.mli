(** The seven stencil execution schemes: the six of the paper's evaluation
    (§6.1.1), ordered by decreasing host involvement, plus the §4
    two-kernel alternative ([Cpu_free_multi], see {!extended}).

    They differ only in who drives an iteration and how a halo moves, so
    they are built from three shared pieces: one halo table per PE (its Up
    and Down sides: boundary plane, the neighbour it feeds and where it
    lands there) that every exchange walks — host memcpy, in-kernel peer
    store or NVSHMEM put+signal; one host-driven loop (per-PE streams, the
    iteration body, the host norm check, the host barrier) for the four
    CPU-controlled baselines; and one set of persistent thread-block roles
    (a comm role per boundary plane plus the inner role, with one cost
    split) for the CPU-Free variants.

    - [Copy]: fully CPU-controlled. One whole-domain kernel per iteration,
      host-issued [cudaMemcpyAsync] halo exchange serialized behind it in the
      same stream, a stream synchronize and a host barrier every iteration.
    - [Overlap]: explicit overlap — boundary kernel + copies in a comm
      stream concurrent with the inner kernel in a comp stream; two stream
      synchronizes and a host barrier per iteration.
    - [P2p]: [Overlap] with the boundary kernel writing neighbours' halos by
      direct device-initiated peer stores; synchronization stays host-side
      (stream syncs + barrier per iteration).
    - [Nvshmem]: discrete kernels with device-side NVSHMEM signaling: per
      iteration the host launches a neighbour-sync kernel and a compute
      kernel that puts boundaries with signals; no host barrier, but every
      launch is still a host API call and the stream is synchronized.
    - [Cpu_free]: the paper's model — one persistent cooperative kernel per
      GPU with specialized comm/inner thread-block roles; the host only
      launches and joins (§4).
    - [Perks]: [Cpu_free]'s communication scheme around a PERKS-style
      persistent compute kernel (register/shared-memory caching, no
      software-tiling penalty). *)

type kind = Copy | Overlap | P2p | Nvshmem | Cpu_free | Perks | Cpu_free_multi

val all : kind list
(** The six schemes of the paper's evaluation figures. *)

val extended : kind list
(** [all] plus [Cpu_free_multi] — the §4 alternative design: two co-resident
    persistent kernels per device (boundary and inner) in separate streams,
    running [Cpu_free]'s roles and synchronized by busy-waiting on local
    device flags. The paper reports no significant difference from the
    single-kernel design. *)

val name : kind -> string
val of_name : string -> kind option

type built = {
  program : Cpufree_gpu.Runtime.ctx -> unit;  (** complete host program *)
  final : unit -> Cpufree_gpu.Buffer.t array option;
      (** after the program has run: per-PE buffer holding the final state *)
  progress : int array;
      (** per-PE last fully completed iteration, zero until the program
          runs; updated as each PE finishes an iteration, so it reports
          partial progress even when a chaos run aborts on a stall
          (graceful degradation) *)
}

val feasible : kind -> Problem.t -> gpus:int -> (unit, string) result
(** Whether the geometry can run: at least one GPU, at least one plane per
    GPU, and — for the persistent variants (CPU-Free, PERKS, two-kernel
    CPU-Free) on several GPUs — at least two planes per PE. [Error] carries
    the reason. *)

val build : kind -> Problem.t -> gpus:int -> built
(** Instantiate a variant.
    @raise Invalid_argument with the {!feasible} reason on infeasible
    geometry, before anything runs. *)
