(** The distributed DaCe benchmark programs of §6.2 (ported from Ziogas et
    al.), each in two frontend forms built from one halo table per program
    (the neighbours, the regions sent and where they land, the tags and the
    request and flag names):

    - the {e MPI} form: per-iteration Isend/Irecv pairs and Waitall, the
      upstream distributed-DaCe style of Listing 5.1;
    - the {e NVSHMEM} form: the same table with sends replaced by
      signaled [Nv_put] nodes and receives by [Nv_signal_wait], Waitall
      omitted in favour of the flag-based point-to-point synchronization
      (Listing 5.2 / §6.2.1).

    Both perform, per time step, two half-updates ([B = stencil(A)] then
    [A = stencil(B)]) each preceded by a halo exchange of the buffer about to
    be read. Jacobi 1D and heat3d share one up/down table (single elements
    and whole planes); Jacobi 2D has its north/south/west/east table.

    Jacobi 1D exchanges a single element per direction (2 neighbours);
    Jacobi 2D partitions the domain as a [pr × pc] rank grid (4 neighbours)
    with contiguous row exchanges and {e strided} column exchanges
    ([MPI_Type_vector] / [nvshmem_iput]). *)

type config1d = { n_global : int; tsteps : int }

val jacobi1d_mpi : config1d -> gpus:int -> Sdfg.t
val jacobi1d_nvshmem : config1d -> gpus:int -> Sdfg.t

val reference1d : config1d -> float array
(** Sequential result, global storage layout [n_global + 2]. *)

type config2d = { nx_global : int; ny_global : int; tsteps : int }

val rank_grid : int -> int * int
(** [(pr, pc)] rank-grid factorization of a power-of-two size, [pc >= pr]
    (rectangular at 2 and 8 ranks with long strided column exchanges — the
    imbalance the paper observes). *)

val jacobi2d_mpi : config2d -> gpus:int -> Sdfg.t
val jacobi2d_nvshmem : config2d -> gpus:int -> Sdfg.t

val reference2d : config2d -> float array
(** Sequential result, global storage [(ny_global + 2) * (nx_global + 2)]. *)

type config3d = { nx3 : int; ny3 : int; nz3 : int; tsteps3 : int }

val heat3d_mpi : config3d -> gpus:int -> Sdfg.t
(** 3D 7-point heat diffusion, z-decomposed: contiguous whole-plane halo
    exchanges (the compiler-side analogue of the paper's hand-written 3D
    stencil of §6.1). *)

val heat3d_nvshmem : config3d -> gpus:int -> Sdfg.t

val reference3d : config3d -> float array
(** Sequential result, padded global storage. *)

type config_smoother = { sm_n : int; sm_steps : int }

val smoother_global : config_smoother -> Sdfg.t
(** A program that exists only generically — not in {!Pipeline.app}: a
    triple-buffered 1-D smoother (U → V → W → U per step) written in global,
    single-address-space form. No ranks, no communication nodes; the generic
    pass ({!Placement.shard_1d} under {!Autotune.search}) is the only way it
    reaches multiple GPUs. *)

val reference_smoother : config_smoother -> float array
(** Sequential result, global storage [sm_n + 2]; the smoothed [U]. *)
