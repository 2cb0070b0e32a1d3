(** Step programs: a process's code as a flat instruction array run with a
    program counter and one resume closure.

    A host rank, a persistent-kernel role or a DaCe rank's walk of its
    state graph is lowered once into an array; {!run} then executes it as
    steps of the calling process. Timed waits are typed ([After],
    [Compute]) and run against the engine directly; [Wait] is the escape
    for a composite step that waits on its own (a halo exchange, a
    collective, an MPI or NVSHMEM call, a flag). {!loop} and {!guard} lay
    out the jumps, so a run of instructions that never wait iterates
    without a closure. *)

type 'a instr =
  | Do of (unit -> unit)  (** run and fall through *)
  | Wait of ((unit -> unit) -> unit)
      (** end by waiting with the continuation it is given — the program's
          one resume closure — or call it at once when it need not wait *)
  | After of ('a -> Time.t)  (** {!Engine.after} the cost, a zero one too *)
  | Compute of { cost : 'a -> Time.t; body : unit -> unit; lane : string Lazy.t; label : string }
      (** wait out [cost], run [body], then {!Engine.log_compute} from where
          the wait began *)
  | Skip_unless of ('a -> bool) * int
      (** [Skip_unless (c, n)] skips the next [n] instructions unless [c]
          holds of the program's state *)
  | Jump of int  (** move the counter by this much *)

val guard : ('a -> bool) -> 'a instr list -> 'a instr list
(** [guard c body] runs [body] only when [c] holds of the state. *)

val loop :
  init:(unit -> unit) -> continue:('a -> bool) -> update:(unit -> unit) -> 'a instr list ->
  'a instr list
(** [init], then [body] and [update] for as long as [continue] holds. *)

val run : Engine.t -> 'a instr array -> 'a -> (unit -> unit) -> unit
(** [run eng code state finish] runs [code] from its start as steps of the
    calling process, with [state] the argument of every guard and cost,
    and calls [finish] once the counter runs off the end. *)
