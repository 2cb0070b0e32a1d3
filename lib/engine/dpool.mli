(** Persistent domain worker pool for barrier-synchronized fan-out.

    One pool outlives many short parallel phases (the scenario daemon's
    batches), so workers are spawned once and woken per phase with a
    condition variable instead of per-phase [Domain.spawn].
    Work items are claimed off a shared atomic cursor, so uneven item costs
    load-balance automatically.

    The task callback must not raise; catch per item and report
    out-of-band. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] participants: [jobs - 1] worker domains plus the
    calling domain, which participates in every {!run}. *)

val jobs : t -> int

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n-1)], each exactly once, distributed
    over the pool, and returns when all have completed. Mutable state written
    by the caller before [run] is visible to every [f] invocation; state
    written by [f] is visible to the caller after [run] returns. *)

val shutdown : t -> unit
(** Stop and join the worker domains. The pool must not be used afterwards. *)
