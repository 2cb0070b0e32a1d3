(** Frontend eDSL for constructing SDFGs — the role DaCe's annotated-Python
    frontend plays, as a typed OCaml API.

    A builder accumulates arrays, signals, symbols, states and interstate
    edges; {!time_loop} wires the canonical guard/body/back-edge shape that
    {!Loop.detect} (and therefore GPUPersistentKernel fusion) recognizes.
    {!finish} validates the program before returning it.

    {[
      let b = Builder.create ~name:"my_app" in
      Builder.array b "A" Symbolic.(int (n + 2));
      Builder.signal b "ready";
      Builder.state b "init" [ ... ];
      Builder.time_loop b ~var:"t" ~from_:1 ~steps ~after:"init"
        ~body:[ ("exchange", [ ... ]); ("compute", [ ... ]) ];
      Builder.finish b ~start:"init"
    ]} *)

type t

val create : name:string -> t

val symbol : t -> string -> int -> unit
(** Bind a compile-time-fixed symbol (N, TSTEPS, ...). *)

val array : t -> string -> Symbolic.expr -> unit
(** Declare a [Host_heap] array of the given element count
    ({!Transforms.gpu_transform} relocates it). *)

val signal : t -> string -> unit
(** Declare a symmetric signal variable. *)

val state : t -> string -> Sdfg.stmt list -> unit
(** Append a state. Names must be unique.
    @raise Invalid_argument on duplicates. *)

val time_loop :
  t -> var:string -> from_:int -> steps:int -> after:string ->
  body:(string * Sdfg.stmt list) list -> unit
(** Create the canonical counted loop: a fresh guard state, the body states
    chained in order, a back edge incrementing [var], and a "done" exit
    state; [after] is the existing state whose completion enters the loop
    (its edge carries the [var := from_] initialization). The loop runs
    [steps] times. *)

val finish : t -> start:string -> Sdfg.t
(** Assemble and validate.
    @raise Invalid_argument if {!Validate.check} fails. *)
