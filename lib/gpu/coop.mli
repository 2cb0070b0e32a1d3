(** Cooperative groups: the grid handle visible inside a persistent kernel.

    A cooperatively launched kernel's thread blocks are all co-resident, so a
    device-wide barrier — [grid.sync()] — is possible. The simulator runs a
    persistent kernel as one process per {e role} (a group of specialized
    thread blocks behaving identically: "comm-top", "comm-bottom", "inner");
    [sync_k] is a barrier across the roles plus the measured grid-sync
    latency. *)

type t

val make :
  Cpufree_engine.Engine.t -> dev:Device.t -> roles:int -> total_blocks:int -> threads_per_block:int ->
  t

val device : t -> Device.t
val total_blocks : t -> int
val threads_per_block : t -> int

val sync_k : t -> (unit -> unit) -> unit
(** [grid.sync()]: charge the architecture's grid-sync latency, then run
    the continuation once every role of this grid has arrived. *)

val sync_count : t -> int
(** Completed grid-wide barriers (equals the iteration count in the stencil
    kernels; used by tests). *)
