(** Discrete-event simulation engine with cooperative processes.

    A simulation is a set of processes that advance a shared virtual clock
    by waiting. The engine executes events in strict (timestamp, sequence)
    order, so every run is deterministic.

    {1 A process is a chain of steps}

    A process made by {!spawn_callbacks} runs as steps: plain callbacks,
    each of which ends either by naming the next one with {!after} (a
    delay) or {!await} (a wait on a waker, from which all of {!Sync} is
    built), or by returning, which finishes the process. A waiting process
    is [Blocked] with a reason, a [since] and, when declared, a wait-for
    edge, which every diagnostic reads. Every host rank, stream daemon,
    kernel role, NVSHMEM delivery and MPI message is such a process; the
    long ones are {!Program}s.

    One other kind remains, for one caller outside the library: a benchmark
    harness that spawns a fiber ({!spawn}) calling
    [Collective.allreduce_sum] or [host_allreduce_sum]. Such a fiber has no
    blocking primitive of its own; it blocks only by handing a step chain
    over ({!handover}), which runs as the same process and continues the
    fiber when it ends. {!spawn}, {!handover} and {!fiber_resumes} go when
    that harness moves to step processes.

    Each wait pushes one event, and so does each process start of either
    kind. {!fiber_resumes} and {!steps_run} count which way the events
    ran.

    {1 One sequential driver}

    {!run} is the only driver. Its queue ({!Queue}) is a binary min-heap
    of plain ints plus a slot table for the thunks, so scheduling an event
    allocates nothing beyond the thunk itself. A process owns one resume
    thunk for its whole life; a step allocates its closure. Diagnostic
    text — process names ([name_of]) and wait reasons ({!await}'s
    [reason]) — is rendered only when {!Deadlock} or {!stall_report} reads
    it. *)

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
    wake nothing has scheduled (i.e. not an {!after} and not a deadline
    wait),
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

val spawn_callbacks :
  t -> name_of:(unit -> string) -> ?daemon:bool -> ?group:string -> (unit -> unit) -> process
(** Register a process to start at the current simulation time: its first
    step runs then. May be called before [run] or from a step of another
    process. A step waits by ending with {!after} or {!await}; one that
    returns without either finishes the process, and one that raises
    finishes it and the exception leaves {!run}.

    [name_of] renders the name when a diagnostic asks: hot paths that spawn
    a process per message pass the pieces of the name and pay for
    formatting only when a diagnostic reads it.

    [group] tags the process with the model entity it acts for ("gpu3",
    "host"): the node name used in wait-for graphs. Wait-for edges declared
    via {!await}'s [?waits_on] connect groups, and {!Deadlock} / {!Stall}
    diagnostics report cycles over them.

    A [daemon] process (default [false]) serves other processes forever — a
    stream server. Daemons do not keep the simulation alive and are exempt
    from deadlock detection: when only daemons remain blocked, {!run}
    returns normally.

    Pids are drawn from one counter for both kinds of process. *)

val after : t -> Time.t -> (unit -> unit) -> unit
(** [after t d k], called from a step as its last action, blocks that
    process for [d] — state [Blocked], reason ["delay"], [since] now, and
    exempt from the stall watchdog — and runs [k] as its next step [d]
    later. It pushes one event.
    @raise Invalid_argument anywhere else. *)

val await : t -> reason:(unit -> string) -> ?waits_on:string -> (unit -> unit) -> unit -> unit
(** [await t ~reason k], called from a step as its last action, blocks the
    process and returns a waker; [k] runs as the process's next step when
    the waker is first called, at the simulated time of that call (from
    any other process). Calling the waker again, or after the process
    moved on, is harmless. The caller files the waker wherever the wait is
    resolved (a flag's waiter list), so a wait builds no registration
    closure.

    [reason] renders the wait for diagnostics; it is called only when one
    is built, so it must capture at the call any value it prints (a flag's
    value at the time it blocked), not read it later. [waits_on] optionally
    names the process {e group} expected to resolve the wait (the peer GPU
    a signal must come from) — the wait-for edge {!Deadlock} and {!Stall}
    diagnostics build their cycle reports from.
    @raise Invalid_argument anywhere else. *)

val spawn : t -> name:string -> (unit -> unit) -> process
(** Register a fiber process: its body runs in its own fiber at the
    current simulation time and blocks only through {!handover}. It has no
    group and is never a daemon. Kept only for the benchmark's allreduce
    harness (see the header). *)

val handover : t -> (('a -> unit) -> unit) -> 'a
(** [handover t chain], called from a fiber process, runs [chain finish] at
    once as steps of that same process. The chain may wait with {!after}
    and {!await}; its last step calls [finish v] as its last action, which
    continues the fiber inline — in that step's event — with [handover]
    returning [v]. A chain that ends without waiting returns at once and
    performs no effect. Neither the handover nor the way back adds or
    removes an event.

    A raise in a step finishes the process once and leaves {!run}; a raise
    in the fiber after [finish] continued it does the same, and is not
    counted twice. A raise before the chain first waits propagates into the
    fiber, as from any call.
    @raise Invalid_argument outside a running fiber, when the chain returns
    without waiting or ending, or when [finish] is called twice or outside
    a step of the process. *)

val process_name : process -> string
val process_done : process -> bool

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

val fiber_resumes : t -> int
(** Events that started or continued a fiber. A fiber continued inline by
    its {!handover} chain is not counted: that is part of a step's event.
    Only a {!spawn} process makes them. *)

val steps_run : t -> int
(** Events that ran a step. Every event is a fiber resume, a step, or a
    {!schedule_at} callback. *)

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
