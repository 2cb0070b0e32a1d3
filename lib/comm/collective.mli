(** Device-side collectives built on the GPU-initiated NVSHMEM primitives.

    Iterative solvers beyond stencils (conjugate gradient, the other workload
    class PERKS targets) need global reductions inside the persistent kernel
    — with a CPU-controlled runtime these are host round-trips; here every
    PE contributes with non-blocking signaled puts and no host thread is
    involved.

    Four allreduce schedules are available: the dense all-to-all scatter
    (latency-optimal at small n, n² messages), the bandwidth-optimal ring,
    the binomial gather/broadcast tree, and recursive doubling. All four are
    allgathers into the same two-bank slot layout followed by an identical
    in-order local reduction, so they return bit-identical results — the
    choice only moves simulated time. A CPU-driven baseline
    ({!host_allreduce_sum}) runs the same schedules as host-issued
    [memcpy]/[synchronize] calls, extending the paper's control-path
    comparison to collectives.

    All device-side operations are {e collective}: every PE of the group
    must call them, from device-side (kernel) processes, once per logical
    round; rounds are tracked internally so the scratch state is reusable. *)

(** Allgather schedule backing {!allreduce_sum}. *)
type algorithm = Dense | Ring | Tree | Doubling

val algorithm_of_string : string -> (algorithm, string) result
(** ["dense"], ["ring"], ["tree"]/["binomial"], ["doubling"]/
    ["recursive-doubling"]. Case-insensitive. *)

val algorithm_to_string : algorithm -> string

type t

val create : ?algorithm:algorithm -> Nvshmem.t -> label:string -> t
(** Allocates the symmetric scratch (two banks of one slot per PE plus the
    arrival signals the schedule needs — a single shared counter for
    [Dense]/[Ring], one signal per tree level / doubling phase for the
    staged schedules, so a wait can only be satisfied by its own round's
    senders). [algorithm] picks the communication schedule (default
    [Dense], the original all-to-all). *)

val algorithm : t -> algorithm

val allreduce_sum : t -> pe:int -> float -> float
(** Contribute a scalar; returns the sum over all PEs' contributions of this
    round. Deterministic summation order (by PE index), identical across
    algorithms. *)

val barrier : t -> pe:int -> unit
(** [nvshmem_barrier_all] convenience re-export. *)

val rounds : t -> pe:int -> int
(** Completed reduction rounds on a PE (diagnostics). *)

(** {1 Fail-stop shrink}

    Under a fault plan with fail-stop clauses the waits inside a schedule
    are resilient; a timeout against a peer whose scheduled death has
    passed diagnoses the kill, and the group {e shrinks}: survivors agree
    on the new membership (derived from the kill schedule at virtual now,
    so deterministic), rebuild the dense/ring/tree/doubling schedule over
    the survivor set on fresh signals, and redo the failed round, completing the reduction over
    survivors only. Supported when the dead PE contributed nothing to the
    failed round (it died before the round began — the quiesced-failure
    model); a mid-round partial contribution cannot be repaired by
    shrinking and deterministically aborts with the diagnosed
    {!Cpufree_fault.Fault.Killed} instead. *)

val degraded : t -> bool
(** Whether any fail-stop shrink has been performed: reductions since
    then cover survivors only. [false] on every fault-free run. *)

val members : t -> pe:int -> int array
(** The PE's adopted membership view (rank order). The full PE set until
    a shrink; after one, the survivor set the PE agreed on. *)

(** {1 CPU-driven baselines}

    The same communication schedules orchestrated by a host thread: every
    copy is a host-issued [memcpy_async] and every dependency a
    [stream_synchronize], charging the host-API latencies the
    device-initiated variants avoid. Call from a host process. *)

val host_allreduce_sum :
  Cpufree_gpu.Runtime.ctx -> algorithm:algorithm -> label:string -> float array -> float array
(** Host-driven allreduce over one value per GPU ([values.(g)] lives on GPU
    [g]); returns each GPU's resulting sum. The reduction order matches the
    device-side variants, so results are bit-identical to
    {!allreduce_sum}. *)
