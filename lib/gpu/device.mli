(** A simulated GPU: identity, architecture and trace-lane naming. *)

type t

val create : Cpufree_engine.Engine.t -> arch:Arch.t -> id:int -> t
val id : t -> int
val arch : t -> Arch.t
val engine : t -> Cpufree_engine.Engine.t

val group : t -> string
(** ["gpu<id>"], made once: the group tag of the processes that act for
    this device in wait-for graphs. *)

val lane : t -> string -> string
(** [lane dev "comp"] is ["gpu<id>.comp"] — the timeline lane for a
    sub-activity of this device. *)


val co_resident_blocks : t -> int
(** Maximum cooperative grid size (paper §4.1.4 limitation). *)
