(** Discrete-event simulation engine with cooperative processes.

    A simulation is a set of processes — plain OCaml functions — that run
    under an effect handler and advance a shared virtual clock by performing
    blocking operations: {!delay} and the suspension primitives built on
    {!suspend} in {!Sync}. The engine executes events in strict
    (timestamp, sequence) order, so every run is deterministic.

    Blocking operations may only be called from inside a process body started
    with {!spawn} and driven by {!run}; calling them elsewhere raises
    [Effect.Unhandled].

    {1 One sequential driver}

    {!run} is the only driver. Its queue is a binary min-heap over
    (timestamp, sequence) held in parallel arrays, so scheduling an event
    allocates nothing beyond the thunk itself, and each process owns one
    resume thunk for its whole life. Diagnostic text — process names
    ({!spawn}'s [name_of]) and wait reasons ({!suspend}'s [reason]) — is
    rendered only when {!Deadlock}, {!Stall} or {!blocked_descriptions}
    reads it. *)

type t

type process
(** Handle to a spawned process. *)

exception Deadlock of string list
(** Raised by {!run} when no event is pending but processes remain blocked.
    Carries a description of each blocked process — name, pid, group,
    reason and its wait-for edge when one was declared — plus a final
    "wait-for cycle: a -> b -> a" line when the declared edges close a
    cycle. This is how lost-signal bugs in communication protocols surface
    in tests. *)

type stall_report = {
  stall_at : Time.t;  (** simulated time the stall was diagnosed *)
  stall_trigger : string;  (** what gave up: the watchdog, or a resilient waiter *)
  stall_blocked : string list;  (** as {!blocked_descriptions} *)
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

val wait_cycle : t -> string list option
(** The first wait-for cycle among blocked processes' group edges (a list
    of group names, first repeated last), if any — deterministic. *)

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
(** The sink spans should be recorded to, if the engine has one. *)

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

val process_name : process -> string
val process_done : process -> bool
val process_group : process -> string option

val delay : t -> Time.t -> unit
(** Block the calling process for a simulated duration. *)

val yield : t -> unit
(** Re-enqueue the calling process at the current time, letting other events
    scheduled at this instant run first. *)

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
(** Total events executed so far, across all runs — the
    numerator of the engine-throughput (events/sec) microbenchmark. *)

val stall_scans : t -> int
(** Stall-watchdog scans actually performed; 0 when no watchdog is armed. *)

val registered_processes : t -> int
(** Live (not yet finished) processes currently in the registry. Finished
    processes are dropped eagerly, so this stays bounded on long sweeps. *)

val blocked_descriptions : t -> string list
(** One line per blocked non-daemon process, sorted by pid:
    "name(#pid) [p0 group]: reason (since T) <- waits on peer" (the [p0]
    column is kept from the retired partitioned drivers, so reports stay
    byte-identical). The body of what {!Deadlock} carries (which appends a
    wait-for cycle line when the declared edges close one). *)

module Queue : sig
  (** The event queue {!run} drains: a binary min-heap over
      (timestamp, sequence) in parallel arrays. Exposed so its pop order
      can be tested against {!Heap}. *)

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

val elapse : t -> (unit -> unit) -> Time.t
(** [elapse t f] runs [f ()] inside a process and returns the simulated time
    it took — a convenience for timing a code section from within a process. *)
