(** Host-side two-sided messaging (the CUDA-aware MPI of the baselines).

    Ranks map one-to-one onto host threads/GPUs. Every call is made from a
    host process and charges host-side per-message overhead; the data path of
    a matched send/recv is a {e host-initiated} device-to-device transfer.
    Strided messages ([Type_vector], used by the DaCe 2D baseline) pay an
    additional per-element pack/unpack cost.

    The messaging calls are step forms: each takes the continuation to run
    once the call returns, and waits with {!Cpufree_engine.Engine.after}
    and {!Cpufree_engine.Sync.Flag.wait_ge_k}. A fiber reaches one through
    {!Cpufree_engine.Engine.handover}. A matched message runs as its own
    {!Cpufree_engine.Engine.spawn_callbacks} process, named
    [mpi.msg.<src>-><dst>]; an unmatched request's flag reads
    [mpi.send.<n>] or [mpi.recv.<n>] in a deadlock or stall report. *)

type t

val init : Cpufree_gpu.Runtime.ctx -> t

(** A message region: [count] elements starting at [pos], [stride] apart
    (contiguous when [stride = 1]). *)
type region = { buf : Cpufree_gpu.Buffer.t; pos : int; stride : int; count : int }

val contiguous : Cpufree_gpu.Buffer.t -> pos:int -> len:int -> region
val type_vector : Cpufree_gpu.Buffer.t -> pos:int -> stride:int -> count:int -> region

type request

val isend_k : t -> rank:int -> dst:int -> tag:int -> region -> (unit -> unit) -> request
(** [MPI_Isend] from [rank]: returns the send's request at once, then pays
    the call overhead, posts the send — which starts the transfer if a
    matching receive is queued — and continues. The request completes
    when the message has landed.
    @raise Invalid_argument if [rank] or [dst] is not a rank. *)

val irecv_k : t -> rank:int -> src:int -> tag:int -> region -> (unit -> unit) -> request
(** [MPI_Irecv] into [rank]'s region, as {!isend_k}. *)

val waitall_k : t -> request list -> (unit -> unit) -> unit
(** [MPI_Waitall]: pays the call overhead, then continues once every
    request has completed. *)
