(** Graph transformations (the DaCe passes this work adds or relies on). *)

val sem_writes : Sdfg.map_sem -> string list
(** Arrays a map semantics writes (with duplicates, in occurrence order). *)

val sem_reads : Sdfg.map_sem -> string list
(** Arrays a map semantics reads (with duplicates, in occurrence order). *)

val gpu_transform : Sdfg.t -> Sdfg.t
(** DaCe's GPUTransform: schedule every sequential map as a discrete GPU
    kernel and move every host array to GPU global memory — the
    "trivially port to CUDA" step of §6.2.1. *)

val map_fusion : Sdfg.t -> Sdfg.t * int
(** Fuse adjacent maps with identical ranges and schedules when the second
    does not read what the first writes. Returns the rewritten SDFG and the
    number of fusions performed. *)

val nvshmem_array : Sdfg.t -> Sdfg.t
(** The NVSHMEMArray transformation (§5.3.3): set the storage of every array
    accessed by an NVSHMEM library node to [Gpu_nvshmem] (symmetric heap). *)

val expand_nvshmem : Sdfg.t -> Sdfg.t
(** In-kernel expansion with shape dispatch (§5.3.1): lower each high-level
    [Nv_put] node to its specialized implementation —

    - single element → [nvshmem_p] (+ [signal_op] when signaled);
    - contiguous → [nvshmemx_putmem_signal_nbi_block] when signaled, else
      [nvshmem_putmem_nbi];
    - strided → [nvshmem_iput] followed by generated [nvshmem_quiet] +
      [nvshmem_signal_op] when signaled (these ops have no combined signaling
      variant).

    Strides must be compile-time constants.
    @raise Invalid_argument on a symbolic stride. *)

val replace_mpi_with_nvshmem_check : Sdfg.t -> (unit, string) result
(** Sanity gate used by the CPU-Free pipeline: confirms no MPI node remains
    (the port from Send/Recv to put+signal is semantic and therefore done in
    the frontend, as in the paper — this pass only verifies it happened). *)
