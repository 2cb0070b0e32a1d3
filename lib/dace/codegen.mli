(** CUDA-like source emission — the inspectable face of the code generator.

    The executable backends ({!Exec}) are the authoritative lowering; these
    printers render the same lowering decisions as human-readable CUDA-style
    source so tests and documentation can assert on what "the generated code"
    contains (e.g. that a strided put expands to [nvshmem_float_iput]
    followed by [nvshmem_quiet] and [nvshmem_signal_op], §5.3.1). *)

val emit_baseline : Sdfg.t -> string
(** Host-side C++/CUDA pseudocode for the CPU-controlled backend: kernel
    launches, stream synchronizes, MPI calls, the interstate loop. *)

val emit_persistent : Persistent_fusion.t -> string
(** The persistent CUDA kernel (cooperative launch, in-kernel time loop,
    device-side NVSHMEM calls, [grid.sync()]) plus its host launcher. *)

