(** Step programs: a process's code as a flat instruction array run with a
    program counter and one resume closure.

    A host rank, a persistent-kernel role or a DaCe rank's walk of its
    state graph is lowered once into an array; {!run} then executes it as
    steps of the calling process. Loops, guards and branches are jumps, so
    a run of instructions that never wait iterates without a closure, and
    each wait resumes the program through the same closure. *)

type 'a instr =
  | Do of (unit -> unit)  (** run and fall through *)
  | Wait of ((unit -> unit) -> unit)
      (** end by waiting ({!Engine.after}, {!Engine.await} or a [_k]
          operation) with the continuation it is given — the program's one
          resume closure — or call it at once when it need not wait *)
  | Skip_unless of ('a -> bool) * int
      (** [Skip_unless (c, n)] skips the next [n] instructions unless [c]
          holds of the program's state *)
  | Jump of int  (** move the counter by this much *)

val run : 'a instr array -> 'a -> (unit -> unit) -> unit
(** [run code state finish] runs [code] from its start as steps of the
    calling process, with [state] the argument of every guard, and calls
    [finish] once the counter runs off the end. Called from a fiber through
    {!Engine.handover}, the whole program is one handover. *)
