(** Discrete-event simulation engine with cooperative processes.

    A simulation is a set of processes — plain OCaml functions — that run
    under an effect handler and advance a shared virtual clock by performing
    blocking operations: {!delay} and the suspension primitives built on
    {!suspend} in {!Sync}. The engine executes events in strict
    (timestamp, sequence) order, so every run is deterministic.

    Blocking operations may only be called from inside a process body started
    with {!spawn} and driven by {!run}; calling them elsewhere raises
    [Effect.Unhandled].

    {1 Two kinds of process}

    A process made by {!spawn} runs in its own fiber and may block
    anywhere in its body. A process made by {!spawn_callbacks} has no
    fiber: its body is a chain of plain callbacks, each of which ends
    either by naming the next one with {!after} or by returning, which
    finishes the process. It is cheaper to start and to resume, and it
    takes a pid, a place in the live list and a [delay] wait state just
    as a fiber process would, so every diagnostic reads the same. Short
    fixed sequences — an NVSHMEM delivery is three steps — use it.

    {1 One sequential driver}

    {!run} is the only driver. Its queue ({!Queue}) is a binary min-heap
    of plain ints plus a slot table for the thunks, so scheduling an event
    allocates nothing beyond the thunk itself. A fiber process owns one
    resume thunk for its whole life; a fiberless one allocates a closure
    per step. Diagnostic text — process names ([name_of]) and wait reasons
    ({!suspend}'s [reason]) — is rendered only when {!Deadlock} or
    {!stall_report} reads it. *)

type t

type process
(** Handle to a spawned process. *)

exception Deadlock of string list
(** Raised by {!run} when no event is pending but processes remain blocked.
    Carries one line per blocked process, as [stall_blocked] of
    {!stall_report} — name, pid, group, reason and its wait-for edge when
    one was declared — plus a final
    "wait-for cycle: a -> b -> a" line when the declared edges close a
    cycle. This is how lost-signal bugs in communication protocols surface
    in tests. *)

type stall_report = {
  stall_at : Time.t;  (** simulated time the stall was diagnosed *)
  stall_trigger : string;  (** what gave up: the watchdog, or a resilient waiter *)
  stall_blocked : string list;
      (** one line per blocked non-daemon process, sorted by pid:
          ["name(#pid) [group]: reason (since T) <- waits on peer"], with no
          [[group]] column for a process without a group and no edge when
          none was declared *)
  stall_cycle : string list option;  (** closed wait-for cycle, when one exists *)
}

exception Stall of stall_report
(** A diagnosed livelock: unlike {!Deadlock} (which needs the event queue to
    drain), a [Stall] is raised while events are still flowing — by the
    watchdog (see {!create}) when some process has been blocked on an
    unscheduled wake for longer than the bound, or directly by a resilient
    waiter that exhausted its retries. *)

val stall_report : t -> trigger:string -> stall_report
(** Snapshot the current blocked set (and any wait-for cycle) into a report
    — for model code that detects a stall itself and wants to raise
    {!Stall} with full diagnostics. *)

val stall_lines : stall_report -> string list
(** Human-readable rendering of a report, one line per fact. *)

val create : ?trace:Trace.t -> ?watchdog:Time.t -> unit -> t
(** [watchdog] (default: none) arms the stall watchdog: if any non-daemon
    process stays blocked for at least that much {e simulated} time on a
    wake nothing has scheduled (i.e. not a [delay] and not a deadline wait),
    the driver raises {!Stall} instead of spinning the event queue forever.
    The scan is amortized — it runs only when the clock passes the earliest
    possible stall time — and deterministic. Pick a bound comfortably above
    the longest legitimate wait of the model (the fault layer derives one
    from its retry budget). *)

val now : t -> Time.t
(** Current simulation time. *)

val trace : t -> Trace.t option
(** The sink spans should be recorded to, if the engine has one. Only a
    run whose spans someone reads attaches one; model code records a span
    (and formats its lane and label) only under [Some]. *)

val busy : t -> Intervals.Log.t
(** The run's compute and communication intervals. The log is always on,
    trace or no trace: it is what a run's compute time, comm time and
    overlap are measured from ({!Intervals.Log.compute_total},
    {!Intervals.Log.comm_and_overlap}). *)

val log_compute : t -> since:Time.t -> lane:string Lazy.t -> label:string -> unit
(** Log the device-compute interval [\[since, now)] in {!busy} and, when
    the engine records a {!trace}, add it as a [Compute] span labelled
    [label] on [lane] — forced only then, so an untraced run never formats
    a lane name. This is the one place a compute interval is recorded. *)

val log_comm : t -> since:Time.t -> unit
(** Log the communication interval [\[since, now)] in {!busy}. *)

val spawn :
  t -> ?name:string -> ?name_of:(unit -> string) -> ?daemon:bool -> ?group:string ->
  (unit -> unit) -> process
(** Register a process to start at the current simulation time. May be called
    before [run] or from inside another process.

    [name_of], when given, renders the name on demand instead of [name]:
    hot paths that spawn a process per message pass the pieces of the name
    and pay for formatting only when a diagnostic reads it.

    [group] tags the process with the model entity it acts for ("gpu3",
    "host"): the node name used in wait-for graphs. Wait-for edges declared
    via [?waits_on] (see {!suspend}) connect groups, and {!Deadlock} /
    {!Stall} diagnostics report cycles over them.

    A [daemon] process (default [false]) serves other processes forever — a
    stream server, a NIC proxy. Daemons do not keep the simulation alive and
    are exempt from deadlock detection: when only daemons remain blocked,
    {!run} returns normally. *)

val spawn_callbacks : t -> name_of:(unit -> string) -> (unit -> unit) -> process
(** Register a fiberless process whose first step runs at the current
    simulation time, as {!spawn}'s body would. [name_of] renders its name
    when a diagnostic asks, as in {!spawn}. It has no group and is never a
    daemon. A step must not block ({!delay} and {!suspend} raise
    [Effect.Unhandled] there); it waits by ending with {!after}. A step
    that returns without calling {!after} finishes the process; one that
    raises finishes it and the exception leaves {!run}. Pids are drawn
    from the same counter as {!spawn}'s. *)

val after : t -> Time.t -> (unit -> unit) -> unit
(** [after t d k], called from a step of a {!spawn_callbacks} process as
    its last action, blocks that process for [d] — the same [Blocked]
    state, reason ["delay"] and [since] as {!delay} — and runs [k] as its
    next step [d] later. It pushes one event, where {!delay} would.
    @raise Invalid_argument anywhere else. *)

val process_name : process -> string
val process_done : process -> bool

val delay : t -> Time.t -> unit
(** Block the calling process for a simulated duration. *)

val suspend :
  t -> reason:(unit -> string) -> ?waits_on:string -> ((unit -> unit) -> unit) -> unit
(** [suspend t ~reason register] blocks the calling process. [register] is
    called immediately with a waker; invoking the waker (from any other
    process, at any later time) resumes the suspended process at the
    simulation time of the waker call. Calling the waker more than once is
    harmless. This is the primitive from which all of {!Sync} is built.

    [reason] renders the wait for diagnostics; it is called only when one
    is built, so it must capture at the call any value it prints (a flag's
    value at the time it blocked), not read it later.

    [waits_on] optionally names the process {e group} expected to resolve
    this wait (the peer GPU a signal must come from) — the wait-for edge
    {!Deadlock} and {!Stall} diagnostics build their cycle reports from. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Run a plain callback (not a process: it must not block) at an absolute
    time, which must not be in the past. *)

val run : ?until:Time.t -> t -> unit
(** Execute events until the queue is empty or the clock passes [until], in
    one deterministic (timestamp, sequence) order: same-time events run in
    the order they were scheduled.

    @raise Deadlock if the queue drains while processes are still blocked
    (unless [until] was given and reached). *)

val events_executed : t -> int
(** Total events executed so far, across all runs. Perfbench reports it
    as [engine.events] and divides run time by it for
    [engine.ns_per_event]. *)

val stall_scans : t -> int
(** Stall-watchdog scans actually performed; 0 when no watchdog is armed. *)

val registered_processes : t -> int
(** Live (not yet finished) processes currently in the registry. Finished
    processes are dropped eagerly, so this stays bounded on long sweeps. *)

module Queue : sig
  (** The event queue {!run} drains. Future events sit in a binary
      min-heap that holds only ints — timestamp, sequence and a slot
      index — while their thunks sit in a slot table, written once per
      push and cleared once per pop, so sifting moves no pointers. Events
      pushed at the time of the last pop go to a FIFO lane instead. A
      popped thunk is not retained. Exposed so its pop order can be tested
      against {!Heap}. *)

  type t

  val create : unit -> t
  val length : t -> int

  val push : t -> Time.t -> (unit -> unit) -> unit
  (** Schedule a thunk. Same-time thunks pop in push order. *)

  val min_time : t -> Time.t
  (** Timestamp of the next thunk to pop. @raise Invalid_argument if empty. *)

  val pop : t -> unit -> unit
  (** Remove the earliest thunk and return it.
      @raise Invalid_argument if empty. *)
end
