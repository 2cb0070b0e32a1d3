(** Host-side execution structure: one host thread per GPU (the baselines'
    [#pragma omp parallel num_threads(num_gpus)]) and CPU-side barriers. *)

type barrier

val barrier_create : Runtime.ctx -> parties:int -> barrier

val barrier_wait_k : Runtime.ctx -> barrier -> (unit -> unit) -> unit
(** OpenMP/MPI-style barrier across host threads: once every party has
    arrived, charge each the host-barrier latency, then run its
    continuation. *)

val parallel_join : Runtime.ctx -> name:string -> (int -> unit) -> unit
(** Run one host process per GPU executing [f gpu_id] (named
    [<name>.host<gpu>], in the ["host"] group) and block the calling fiber
    until all have finished. *)
