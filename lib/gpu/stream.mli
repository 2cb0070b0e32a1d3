(** CUDA streams: in-order work queues served by a per-stream daemon process.

    Each enqueued operation runs to completion before the next starts, so a
    stream provides exactly CUDA's intra-stream ordering; concurrency comes
    from using several streams ([comp_stream] / [comm_stream] in the paper's
    baseline pseudocode). Operations may block (on transfers, flags), which
    stalls the stream — matching a device kernel occupying its stream.

    The daemon runs an op written as steps (a copy) as steps
    ({!Cpufree_engine.Engine.handover}) and an op whose body blocks (a
    kernel) in its fiber, and waits for its next op the way it ran the
    last, so it switches only where a copy and a kernel meet. *)

type t

val create : Cpufree_engine.Engine.t -> dev:Device.t -> name:string -> t
val name : t -> string
val device : t -> Device.t

val lane : t -> string Lazy.t
(** The stream's timeline lane, ["gpu<id>.<name>"], formatted on first
    use — only a traced run forces it. *)

val enqueue : t -> (unit -> unit) -> unit
(** Append an operation whose body may block anywhere; the stream's fiber
    runs it. Never blocks the caller. *)

val enqueue_steps : t -> ((unit -> unit) -> unit) -> unit
(** Append an operation written as steps: the stream calls it with the
    continuation to run when it is done. Never blocks the caller. *)

val await_idle : t -> unit
(** Block until everything enqueued before this call has completed. *)

val await_idle_k : t -> (unit -> unit) -> unit
(** {!await_idle} as steps. *)
