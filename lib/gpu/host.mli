(** Host-side execution structure: one host thread per GPU (the baselines'
    [#pragma omp parallel num_threads(num_gpus)]) and CPU-side barriers. *)

type barrier

val barrier_create : Runtime.ctx -> parties:int -> barrier

val barrier_wait_k : Runtime.ctx -> barrier -> (unit -> unit) -> unit
(** OpenMP/MPI-style barrier across host threads: once every party has
    arrived, charge each the host-barrier latency, then run its
    continuation. *)

val parallel_join_k :
  Runtime.ctx -> name:string -> (int -> (unit -> unit) -> unit) -> (unit -> unit) -> unit
(** Start one host process per GPU running the step body [f gpu_id done]
    (named [<name>.host<gpu>], in the ["host"] group; the rank ends when
    its body calls [done]), and run the continuation once every rank has
    ended. *)
