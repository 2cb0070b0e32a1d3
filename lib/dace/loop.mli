(** Canonical loop detection on the interstate graph.

    DaCe represents [for t in range(lo, hi)] as a guard state with a
    conditional edge into the body, a complementary edge to the exit, and a
    back edge carrying the induction update. {!detect} recognizes that shape;
    it is the prerequisite of the GPUPersistentKernel fusion (§5.1). *)

type t = {
  l_var : string;
  l_init : Symbolic.expr;  (** initial value, from the edge entering the guard *)
  l_cond : Symbolic.cond;  (** continue condition *)
  l_update : Symbolic.expr;  (** new value of [l_var] on the back edge *)
  l_guard : string;
  l_body : string list;  (** body states in execution order *)
  l_exit : string;
}

val edges :
  var:string -> from_:int -> steps:int -> entry:string -> guard:string -> exit:string ->
  string list -> Sdfg.edge list
(** [edges ~var ~from_ ~steps ~entry ~guard ~exit body] is the canonical
    counted loop over the non-empty chain of states [body], in the order
    {!detect} reads it: [entry → guard] with [var := from_], [guard → body]
    while [var < from_ + steps], [guard → exit] once [var >= from_ + steps],
    the body chained in order, and the back edge [var := var + 1]. The loop
    runs [steps] times. *)

val detect : Sdfg.t -> (t, string) result
(** Find the (single) canonical loop, or explain why none was found. *)

val prologue : Sdfg.t -> t -> string list
(** States on the linear path from the start state to the guard (exclusive). *)

val epilogue : Sdfg.t -> t -> string list
(** States on the linear path from the exit state onward (inclusive). *)
