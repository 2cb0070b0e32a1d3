(** The six stencil execution schemes of the paper's evaluation (§6.1.1),
    ordered by decreasing host involvement:

    - [Copy]: fully CPU-controlled. One whole-domain kernel per iteration,
      host-issued [cudaMemcpyAsync] halo exchange serialized behind it in the
      same stream, a stream synchronize and a host barrier every iteration.
    - [Overlap]: explicit overlap — boundary kernel + copies in a comm
      stream concurrent with the inner kernel in a comp stream; two stream
      synchronizes and a host barrier per iteration.
    - [P2p]: boundary kernels write neighbours' halos with direct
      device-initiated peer stores, but synchronization stays host-side
      (stream syncs + barrier per iteration).
    - [Nvshmem]: discrete kernels with device-side NVSHMEM signaling: per
      iteration the host launches a neighbour-sync kernel and a compute
      kernel that puts boundaries with signals; no host-side sync until the
      end, but every launch is still a host API call.
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
    synchronized by busy-waiting on local device flags. The paper reports no
    significant difference from the single-kernel design. *)

val name : kind -> string
val of_name : string -> kind option

type built = {
  program : Cpufree_gpu.Runtime.ctx -> unit;  (** complete host program *)
  final : unit -> Cpufree_gpu.Buffer.t array option;
      (** after the program has run: per-PE buffer holding the final state *)
  progress : unit -> int array option;
      (** per-PE last fully completed iteration — populated as soon as the
          program starts, so it reports partial progress even when a chaos
          run aborts on a stall (graceful degradation) *)
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
