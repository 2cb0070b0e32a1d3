(** Host-side execution structure: one host thread per GPU (the baselines'
    [#pragma omp parallel num_threads(num_gpus)]) and CPU-side barriers. *)

type barrier

val barrier_create : Runtime.ctx -> parties:int -> barrier

val barrier_wait : Runtime.ctx -> barrier -> unit
(** OpenMP/MPI-style barrier across host threads, charging the host-barrier
    latency to each participant. *)

val parallel_join : Runtime.ctx -> name:string -> (int -> unit) -> unit
(** Run one host process per GPU executing [f gpu_id] and block the calling
    process until all have finished. *)
