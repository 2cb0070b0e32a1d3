(** Launching CPU-Free programs: one persistent cooperative kernel per GPU,
    started once, after which the host only waits (paper §3.1).

    [run_all_k] is the whole CPU-Free host program: each host rank performs
    exactly one cooperative launch and one join — every iteration-level
    action (time loop, synchronization, halo exchange) happens on-device in
    the role bodies. A role is a step body, given the continuation that
    ends it. *)

type roles_of_pe = int -> (string * (Cpufree_gpu.Coop.t -> (unit -> unit) -> unit)) list
(** Role list for a given PE/device: e.g. [("comm_top", body0);
    ("comm_bottom", body1); ("inner", body2)]. *)

val run_all_k :
  Cpufree_gpu.Runtime.ctx -> name:string -> blocks:int -> threads_per_block:int ->
  roles:roles_of_pe -> (unit -> unit) -> unit
(** Launch the persistent kernel on every device of the context from
    per-device host ranks, and run the continuation once every kernel has
    exited.

    @raise Cpufree_gpu.Runtime.Coop_launch_error when [blocks] exceeds the
    co-residency limit — the §4.1.4 restriction. *)

val max_blocks : Cpufree_gpu.Runtime.ctx -> int
(** Largest legal cooperative grid for this architecture. *)
