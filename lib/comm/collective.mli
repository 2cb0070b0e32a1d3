(** Allreduce over all GPUs: one schedule, two drivers.

    Iterative solvers beyond stencils (conjugate gradient, the other workload
    class PERKS targets) need global reductions inside the persistent kernel
    — with a CPU-controlled runtime these are host round-trips; here every
    PE contributes with non-blocking signaled puts and no host thread is
    involved.

    Four allgather schedules are available: the dense all-to-all scatter
    (latency-optimal at small n, n² messages), the bandwidth-optimal ring,
    the binomial gather/broadcast tree, and recursive doubling. Each is
    written once, as numbered phases: the copies every GPU issues in a
    phase and the elements it then waits for. Two drivers walk it — the
    device driver ({!allreduce_sum_k}: signaled puts, then a signal wait) and
    the CPU-driven baseline ({!host_allreduce_sum_k}: host [memcpy]s, then a
    [synchronize] on every stream), extending the paper's control-path
    comparison to collectives. Both move the same bytes in the same
    transfers. All schedules fill the same two-bank slot layout and end in
    an identical in-order local reduction, so they return bit-identical
    results — the choice only moves simulated time.

    All device-side operations are {e collective}: every PE must call them,
    from device-side (kernel) processes, once per logical round; rounds are
    tracked internally so the scratch state is reusable. *)

(** Allgather schedule backing {!allreduce_sum_k}. *)
type algorithm = Dense | Ring | Tree | Doubling

val algorithm_of_string : string -> (algorithm, string) result
(** ["dense"], ["ring"], ["tree"]/["binomial"], ["doubling"]/
    ["recursive-doubling"]. Case-insensitive. *)

val algorithm_to_string : algorithm -> string

type t

val create : ?algorithm:algorithm -> Nvshmem.t -> label:string -> t
(** Allocates the symmetric scratch (two banks of one slot per PE plus the
    arrival signals the schedule needs — a single shared counter
    [<label>.arrived] for [Dense]/[Ring], one signal per tree level
    ([up<k>], [down]) or doubling stage ([pre], [st<k>], [post]) for the
    staged schedules, so a wait can only be satisfied by its own round's
    senders). Under an active fault plan ({!Nvshmem.reorders}) [Ring]
    rides one signal per phase ([ph<k>]) instead, since a dropped or
    delayed delivery would let a later phase meet an earlier wait. [algorithm] picks the communication schedule (default
    [Dense], the original all-to-all). *)

val allreduce_sum_k : t -> pe:int -> float -> (float -> unit) -> unit
(** Contribute a scalar; the continuation gets the sum over all PEs'
    contributions of this round. Deterministic summation order (by PE
    index), identical across algorithms. The whole schedule is one chain
    of steps. *)

val allreduce_sum : t -> pe:int -> float -> float
(** {!allreduce_sum_k} from a fiber: one {!Cpufree_engine.Engine.handover}
    of the chain. Kept only for the benchmark's fiber allreduce harness;
    it goes with that harness, as does the fiber itself. *)

val rounds : t -> pe:int -> int
(** Completed reduction rounds on a PE (diagnostics). *)

(** {1 CPU-driven baseline}

    The same schedule orchestrated by a host thread: every copy is a
    host-issued {!Cpufree_gpu.Runtime.memcpy_async_k} and every phase ends
    in a {!Cpufree_gpu.Runtime.stream_synchronize_k} on every stream,
    charging the host-API latencies the device-initiated driver avoids.
    Call from a host process. *)

val host_allreduce_sum_k :
  Cpufree_gpu.Runtime.ctx -> algorithm:algorithm -> label:string -> float array ->
  (float array -> unit) -> unit
(** Host-driven allreduce over one value per GPU ([values.(g)] lives on GPU
    [g]); the continuation gets each GPU's resulting sum. The reduction
    order matches the device-side variants, so results are bit-identical
    to {!allreduce_sum_k}. *)

val host_allreduce_sum :
  Cpufree_gpu.Runtime.ctx -> algorithm:algorithm -> label:string -> float array -> float array
(** {!host_allreduce_sum_k} from a fiber: one
    {!Cpufree_engine.Engine.handover} of the chain. Kept only for the
    benchmark's fiber allreduce harness, as {!allreduce_sum} is. *)
