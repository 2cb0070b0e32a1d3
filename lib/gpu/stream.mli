(** CUDA streams: in-order work queues served by a per-stream daemon process.

    Each enqueued operation runs to completion before the next starts, so a
    stream provides exactly CUDA's intra-stream ordering; concurrency comes
    from using several streams ([comp_stream] / [comm_stream] in the paper's
    baseline pseudocode). An operation may wait (on transfers, flags),
    which stalls the stream — matching a device kernel occupying its
    stream.

    Every operation is written as steps, and the daemon serves its queue as
    one {!Cpufree_engine.Engine.handover} for its whole life: it resumes as
    a fiber only to start. *)

type t

val create : Cpufree_engine.Engine.t -> dev:Device.t -> name:string -> t
val name : t -> string
val device : t -> Device.t

val lane : t -> string Lazy.t
(** The stream's timeline lane, ["gpu<id>.<name>"], formatted on first
    use — only a traced run forces it. *)

val enqueue_steps : t -> ((unit -> unit) -> unit) -> unit
(** Append an operation: the stream calls it with the continuation to run
    when it is done. Never blocks the caller. *)

val await_idle_k : t -> (unit -> unit) -> unit
(** Run the continuation once everything enqueued before this call has
    completed. *)
