(** SDFG lowering to executable simulator programs — the counterpart of
    DaCe's CUDA code generator, targeting the simulated machine.

    Two backends, matching the paper's two experiment arms (§6.2.2):

    - {!build_baseline}: CPU-controlled execution of a (GPU-transformed) SDFG.
      Every map becomes a discrete kernel launch; MPI library nodes run on
      the host with a stream synchronize generated before each send (what
      upstream distributed DaCe emits, Fig. 5.1); every state ends with a
      stream synchronize.
    - {!build_persistent}: CPU-Free execution of a
      {!Persistent_fusion.t}: the whole loop runs inside one cooperative
      persistent kernel per rank. Communication and signaling execute
      device-side; [S_grid_sync] becomes [grid.sync()]. Per §5.3.2 the
      communication calls are single-thread-scheduled, so the kernel is one
      sequential role per device.

    Execution is SPMD: rank [r] runs on GPU [r] with symbols [rank]/[size]
    bound.

    {b Lowering.} A built program does not interpret the SDFG while it
    runs. When [program] starts, each rank lowers its program once into
    OCaml closures, and only those closures run on every step:

    - [rank], [size] and every symbol that no interstate edge or loop
      assigns are constants. Each assigned variable (edge assignments, the
      persistent loop's induction variable) is an integer slot.
    - Expressions compile through {!Symbolic.compile}. A subtree of
      constants is folded, unless evaluating it raises: then it raises
      when the step that evaluates it runs.
    - Array, signal and MPI-request names resolve once, to this rank's
      buffers, signals and request slots. Whether a map touches real data
      (no phantom operand) is decided once per map. Map extents and
      kernel costs are precomputed when constant.
    - The state graph is indexed once, and a host rank's walk of it
      becomes one {!Cpufree_engine.Program}: each state, then its
      out-edges as guarded assignments and jumps. A persistent rank's
      prologue, cooperative launch, join, fence and epilogue are one
      program. Either runs as the steps of the rank's process
      ({!Cpufree_gpu.Host.parallel_join_k}).
    - A persistent kernel lowers each role's share of the loop when the
      role starts, with the role's statement filter already applied, into
      a {!Cpufree_engine.Program}: an instruction array and a program
      counter.
      Each map delay, put issue, fence, grid sync and signal wait ends by
      waiting with {!Cpufree_engine.Engine.after} or
      {!Cpufree_engine.Engine.await} on the role's one resume closure; the
      loop's init, condition and update and the rank guards are jumps, so
      statements that never wait run in a loop, not by recursion. The
      role's process runs the program after the teardown delay
      ({!Cpufree_gpu.Runtime.launch_cooperative_k}).

    Real-data runs ([~backed:true]) use the same closures. An unresolvable
    name or an unsupported construct lowers to a statement that raises
    {!Lowering_error} when it runs: the error surfaces from the run, at the
    step that reaches it, and a construct no rank reaches does not fail the
    program. *)

type built = {
  program : Cpufree_core.Measure.program;
  read_array : string -> pe:int -> Cpufree_gpu.Buffer.t option;
      (** after the program ran: a rank's instance of an array *)
}

val build_baseline : ?backed:bool -> Sdfg.t -> built
(** @param backed allocate real data (default [false] = phantom buffers). *)

val build_persistent : ?backed:bool -> Persistent_fusion.t -> built

val init_value : int -> float
(** The deterministic global initializer used by [Init_global*] semantics;
    exposed so reference solvers can match it. *)

exception Lowering_error of string
(** Raised when an SDFG contains a construct a backend cannot lower (e.g. an
    NVSHMEM node in host code, or a discrete-schedule map inside a persistent
    kernel). *)
