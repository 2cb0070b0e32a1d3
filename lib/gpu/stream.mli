(** CUDA streams: in-order work queues served by a per-stream daemon process.

    Each enqueued operation runs to completion before the next starts, so a
    stream provides exactly CUDA's intra-stream ordering; concurrency comes
    from using several streams ([comp_stream] / [comm_stream] in the paper's
    baseline pseudocode). Operations may block (on transfers, flags), which
    stalls the stream — matching a device kernel occupying its stream. *)

type t

val create : Cpufree_engine.Engine.t -> dev:Device.t -> name:string -> t
val name : t -> string
val device : t -> Device.t

val enqueue : t -> ?label:string -> (unit -> unit) -> unit
(** Append an operation. Never blocks the caller. *)

val enqueued : t -> int
(** Operations submitted so far. *)

val completed : t -> int

val await_count : t -> int -> unit
(** Block the calling process until at least [n] operations have completed. *)

val await_idle : t -> unit
(** Block until everything enqueued before this call has completed. *)
