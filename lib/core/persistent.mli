(** Launching CPU-Free programs: one persistent cooperative kernel per GPU,
    started once, after which the host only waits (paper §3.1).

    [run_all] is the whole CPU-Free host program: each host thread performs
    exactly one cooperative launch and one join, as one
    {!Cpufree_engine.Engine.handover} — every iteration-level action (time
    loop, synchronization, halo exchange) happens on-device in the role
    bodies. A role is a process body; one written as a step program hands
    itself over. *)

type roles_of_pe = int -> (string * (Cpufree_gpu.Coop.t -> unit)) list
(** Role list for a given PE/device: e.g. [("comm_top", body0);
    ("comm_bottom", body1); ("inner", body2)]. *)

val run_all :
  Cpufree_gpu.Runtime.ctx -> name:string -> blocks:int -> threads_per_block:int ->
  roles:roles_of_pe -> unit
(** Launch the persistent kernel on every device of the context from
    per-device host threads and block the calling process until all kernels
    exit.

    @raise Cpufree_gpu.Runtime.Coop_launch_error when [blocks] exceeds the
    co-residency limit — the §4.1.4 restriction. *)

val max_blocks : Cpufree_gpu.Runtime.ctx -> int
(** Largest legal cooperative grid for this architecture. *)
