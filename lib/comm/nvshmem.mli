(** GPU-initiated PGAS communication: the NVSHMEM model.

    Each GPU is a processing element (PE). Buffers allocated on the symmetric
    heap exist at the same logical offset on every PE, so a PE can address a
    peer's copy directly. All data-movement entry points below are {e device
    side}: they are called from kernel processes, charge only GPU-initiated
    latencies, and never involve a host thread — the mechanism behind the
    paper's CPU-Free communication.

    Non-blocking ([_nbi]) operations return after issue; remote delivery
    (data first, then any attached signal, preserving NVSHMEM's
    data-before-signal ordering) happens asynchronously, as an engine step
    process ({!Cpufree_engine.Engine.spawn_callbacks}), and
    {!quiet_k} waits for all of the calling PE's outstanding deliveries.

    Every operation is written as steps: called with a continuation, it
    runs it once the operation returns. *)

type t

val init : Cpufree_gpu.Runtime.ctx -> t
(** One PE per GPU of the runtime context. *)

val n_pes : t -> int
val engine : t -> Cpufree_engine.Engine.t

(** Symmetric data allocation: one same-size buffer per PE. *)
type sym

val sym_malloc : t -> label:string -> ?phantom:bool -> int -> sym
val local : sym -> pe:int -> Cpufree_gpu.Buffer.t
(** The PE-local instance of a symmetric allocation. *)

(** Symmetric signal variables (NVSHMEM uint64 signals). *)
type signal

val signal_malloc : t -> label:string -> unit -> signal

type signal_op = Signal_set | Signal_add

val putmem_nbi_k :
  t -> from_pe:int -> to_pe:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int -> dst:sym ->
  dst_pos:int -> len:int -> (unit -> unit) -> unit
(** Contiguous non-blocking put of [len] elements into [to_pe]'s instance of
    [dst]. Caller pays only the issue overhead, then continues. *)

val putmem_signal_nbi_k :
  t -> from_pe:int -> to_pe:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int -> dst:sym ->
  dst_pos:int -> len:int -> sig_var:signal -> sig_op:signal_op -> sig_value:int ->
  (unit -> unit) -> unit
(** [nvshmemx_putmem_signal_nbi_block]: put then update [sig_var] at the
    destination once the data has landed. *)

val iput_nbi_k :
  t -> from_pe:int -> to_pe:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int -> src_stride:int ->
  dst:sym -> dst_pos:int -> dst_stride:int -> count:int -> (unit -> unit) -> unit
(** Strided element-wise put ([nvshmem_float_iput]); pays the per-element
    non-coalesced penalty. No signal variant exists (paper §5.3.1) — pair
    with {!signal_op_remote_k} and {!quiet_k}. *)

val p_k :
  t -> from_pe:int -> to_pe:int -> value:float -> dst:sym -> dst_pos:int -> (unit -> unit) -> unit
(** Single-element put ([nvshmem_float_p]); blocking, fine-grained: continues
    once the element has landed. *)

val signal_op_remote_k :
  t -> from_pe:int -> to_pe:int -> sig_var:signal -> sig_op:signal_op -> sig_value:int ->
  (unit -> unit) -> unit
(** Standalone remote signal update ([nvshmem_signal_op]); ordered after the
    caller's previously issued puts to the same PE (fence semantics). *)

val signal_wait_until_k :
  t -> ?expect_from:int -> pe:int -> sig_var:signal -> (int -> bool) -> (unit -> unit) -> unit
(** [nvshmem_signal_wait_until] on the local instance of [sig_var].

    [expect_from] names the PE whose signal update this wait depends on; it
    tags the wait-for graph edge used by stall/deadlock diagnostics. Under an
    active fault plan the wait is {e resilient}: it times out after the
    plan's [retry] budget, asks the fabric to retransmit any delivery lost on
    the way to this signal (data replayed before the signal, preserving
    ordering), and backs off exponentially; a wait that exhausts its retries
    raises {!Cpufree_engine.Engine.Stall} with a full diagnosis instead of
    spinning forever. Without faults the wait is the plain spin of the
    baseline model.

    The library itself waits through {!signal_wait_ge_k}; this general
    form stays for NVSHMEM's other comparisons, which the tests use to
    read a signal's value and to wait for an exact one. *)

val signal_wait_ge_k :
  t -> ?expect_from:int -> pe:int -> sig_var:signal -> int -> (unit -> unit) -> unit
(** {!signal_wait_until_k} for [value >= v]; a flag that already holds
    builds no predicate. *)

val quiet_k : t -> pe:int -> (unit -> unit) -> unit
(** Continue once all of [pe]'s outstanding non-blocking operations have
    been delivered remotely. Under an active fault plan the fence
    additionally detects and retransmits the PE's dropped signal-less
    puts. *)

val reorders : t -> bool
(** Whether deliveries can land out of order: true under an active fault
    plan, whose dropped and delayed deliveries arrive after later ones from
    the same PE (a dropped one only when a recovering waiter replays it). *)

val pending : t -> pe:int -> int
(** Outstanding non-blocking deliveries for a PE (diagnostics/tests). *)
