(** GPU-initiated PGAS communication: the NVSHMEM model.

    Each GPU is a processing element (PE). Buffers allocated on the symmetric
    heap exist at the same logical offset on every PE, so a PE can address a
    peer's copy directly. All data-movement entry points below are {e device
    side}: they are called from kernel processes, charge only GPU-initiated
    latencies, and never involve a host thread — the mechanism behind the
    paper's CPU-Free communication.

    Non-blocking ([_nbi]) operations return after issue; remote delivery
    (data first, then any attached signal, preserving NVSHMEM's
    data-before-signal ordering) happens asynchronously, as a fiberless
    engine process ({!Cpufree_engine.Engine.spawn_callbacks}), and {!quiet}
    waits for all of the calling PE's outstanding deliveries. *)

type t

val init : Cpufree_gpu.Runtime.ctx -> t
(** One PE per GPU of the runtime context. *)

val n_pes : t -> int

(** Symmetric data allocation: one same-size buffer per PE. *)
type sym

val sym_malloc : t -> label:string -> ?phantom:bool -> int -> sym
val local : sym -> pe:int -> Cpufree_gpu.Buffer.t
(** The PE-local instance of a symmetric allocation. *)

(** Symmetric signal variables (NVSHMEM uint64 signals). *)
type signal

val signal_malloc : t -> label:string -> unit -> signal
val signal_read : signal -> pe:int -> int

type signal_op = Signal_set | Signal_add

val putmem_nbi :
  t -> from_pe:int -> to_pe:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int -> dst:sym ->
  dst_pos:int -> len:int -> unit
(** Contiguous non-blocking put of [len] elements into [to_pe]'s instance of
    [dst]. Caller pays only the issue overhead. *)

val putmem_signal_nbi :
  t -> from_pe:int -> to_pe:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int -> dst:sym ->
  dst_pos:int -> len:int -> sig_var:signal -> sig_op:signal_op -> sig_value:int -> unit
(** [nvshmemx_putmem_signal_nbi_block]: put then update [sig_var] at the
    destination once the data has landed. *)

val iput_nbi :
  t -> from_pe:int -> to_pe:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int -> src_stride:int ->
  dst:sym -> dst_pos:int -> dst_stride:int -> count:int -> unit
(** Strided element-wise put ([nvshmem_float_iput]); pays the per-element
    non-coalesced penalty. No signal variant exists (paper §5.3.1) — pair
    with {!signal_op_remote} and {!quiet}. *)

val p : t -> from_pe:int -> to_pe:int -> value:float -> dst:sym -> dst_pos:int -> unit
(** Single-element put ([nvshmem_float_p]); blocking, fine-grained. *)

val signal_op_remote :
  t -> from_pe:int -> to_pe:int -> sig_var:signal -> sig_op:signal_op -> sig_value:int -> unit
(** Standalone remote signal update ([nvshmem_signal_op]); ordered after the
    caller's previously issued puts to the same PE (fence semantics). *)

val signal_wait_until :
  t -> ?expect_from:int -> pe:int -> sig_var:signal -> (int -> bool) -> unit
(** [nvshmem_signal_wait_until] on the local instance of [sig_var].

    [expect_from] names the PE whose signal update this wait depends on; it
    tags the wait-for graph edge used by stall/deadlock diagnostics. Under an
    active fault plan the wait is {e resilient}: it times out after the
    plan's [retry] budget, asks the fabric to retransmit any delivery lost on
    the way to this signal (data replayed before the signal, preserving
    ordering), and backs off exponentially; a wait that exhausts its retries
    raises {!Cpufree_engine.Engine.Stall} with a full diagnosis instead of
    spinning forever. Without faults the wait is the plain spin of the
    baseline model. *)

val signal_wait_ge : t -> ?expect_from:int -> pe:int -> sig_var:signal -> int -> unit

val quiet : t -> pe:int -> unit
(** Block until all of [pe]'s outstanding non-blocking operations have been
    delivered remotely. Under an active fault plan the fence additionally
    detects and retransmits the PE's dropped signal-less puts. *)

val barrier_all : t -> pe:int -> unit
(** Device-side barrier across all PEs (includes an implicit quiet). *)

val pending : t -> pe:int -> int
(** Outstanding non-blocking deliveries for a PE (diagnostics/tests). *)
