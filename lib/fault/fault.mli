(** Deterministic, virtual-time fault injection.

    A {!spec} describes a perturbed machine: delivery drop/delay
    probabilities on the NVSHMEM fabric, straggler GPUs (per-device
    compute-latency multipliers), periodic link degradation ("flap")
    windows, NIC outage intervals on inter-node paths, and the retry
    policy the hardened runtime uses to survive them. Specs are pure
    data — parse one from the CLI grammar with {!of_string}, or build
    one with {!preset} for the chaos figure.

    A {!plan} is one run's activation of a spec: it owns the seeded
    random streams every stochastic decision draws from, the registry
    of lost deliveries awaiting retransmission, and the fault/recovery
    counters. Randomness is structured for reproducibility: straggler
    multipliers, flap phase and outage windows are fixed at activation,
    and per-delivery fates draw from a per-PE splitmix stream in the
    sender's program order. A fixed [(spec, seed)] therefore yields
    bit-identical runs. Plans are single-run and must never be shared
    across concurrently executing engines; activate one per run. *)

module Time = Cpufree_engine.Time

(** {1 Specs} *)

type flap = {
  flap_period : Time.t;  (** cycle length of the degradation pattern *)
  flap_duty : float;  (** fraction of each period spent degraded, in [\[0,1\]] *)
  flap_mult : float;  (** serialization multiplier while degraded, >= 1 *)
}

type spec = {
  drop_prob : float;
      (** probability an NVSHMEM delivery is lost. Only NVSHMEM deliveries
          are drawn: the copy-engine, peer-to-peer and MPI transfers of the
          host-driven schemes never drop *)
  delay_prob : float;
      (** probability an NVSHMEM delivery is delayed (if not lost); other
          transfers are never delayed *)
  delay_ns : int;  (** mean extra delivery latency, in ns *)
  stragglers : (int * float) list;  (** per-GPU compute multipliers, >= 1 *)
  flap : flap option;
  nic_outages : (Time.t * Time.t) list;  (** (start, duration) intervals *)
  kills : (int * Time.t) list;
      (** fail-stop GPU deaths: [(pe, at)] — from virtual time [at] on,
          the NVSHMEM operations the device initiates are silently skipped
          ([Nvshmem.sender_dead]). Nothing else stops: host-driven copies,
          peer-to-peer transfers and MPI messages to and from the dead GPU
          still complete, so the baseline-copy, baseline-overlap and
          baseline-p2p stencils and the DaCe MPI arm finish as if no GPU
          had died *)
  link_fails : ((string * string) * Time.t) list;
      (** permanent link deaths: [((src_vertex, dst_vertex), at)], both
          directions of every parallel link between the named topology
          vertices *)
  switch_fails : (string * Time.t) list;
      (** permanent switch/vertex deaths: [(vertex_name, at)], taking
          every incident link down with the vertex *)
  retry_timeout : Time.t;  (** first resilient-wait timeout *)
  max_retries : int;  (** retries before a diagnosed stall *)
  backoff : float;  (** timeout multiplier per retry, >= 1 *)
}

val none : spec
(** The identity spec: no faults, default retry policy. *)

val is_active : spec -> bool
(** Whether the spec injects anything at all. [none] (and any spec that
    only tunes the retry policy) is inactive; inactive specs leave every
    run byte-identical to an unfaulted one. *)

val has_failstop : spec -> bool
(** Whether the spec schedules any permanent fail-stop death (GPU kill,
    link failure, or switch failure). *)

val of_string : string -> (spec, string) result
(** Parse the CLI fault grammar: semicolon-separated clauses
    [drop=P], [delay=P\@NS], [straggler=GxM], [flap=PERIOD_US\@DUTYxM],
    [nic=START_US+DUR_US], [kill=GPU\@T_US], [linkfail=SRC-DST\@T_US],
    [switchfail=NAME\@T_US], [retry=TIMEOUT_USxN], [backoff=F], or
    [none]. Example:
    ["drop=0.02;delay=0.1\@2000;straggler=3x1.5;kill=2\@500"].
    An unknown clause fails with a message naming the offending token
    and listing the complete grammar. *)

val to_string : spec -> string
(** Canonical rendering; [of_string (to_string s)] round-trips. *)

val preset : intensity:float -> spec
(** The chaos-figure family: a machine perturbed proportionally to
    [intensity] (0 = pristine = {!none}; 1 = moderately hostile —
    ~1% drops, ~8% delayed deliveries, one straggler GPU, periodic link
    flapping; larger values scale up from there). *)

val default_watchdog : spec -> Time.t
(** A stall-watchdog bound safely above the spec's full retry budget, so
    the watchdog only fires on genuine livelock (never on a recoverable
    wait that retries are still pacing). *)

(** {1 Fail-stop schedule queries}

    Fail-stop deaths are scheduled at fixed virtual times in the spec
    itself (not drawn from the seeded plan streams), so every query here
    is a pure function of [(spec, now)]. *)

val dead : spec -> pe:int -> now:Time.t -> bool
(** Whether [pe]'s scheduled death has already happened at [now]. *)

val killed_by : spec -> now:Time.t -> (int * Time.t) list
(** All PEs whose scheduled death time is [<= now], each with its
    earliest death time, sorted by PE. *)

(** {1 Plans} *)

type plan

val activate : spec -> seed:int -> gpus:int -> plan
(** Instantiate the spec for one run on a [gpus]-device machine. All
    precomputed randomness (straggler noise, flap phase) derives from
    [seed]. *)

val spec_of : plan -> spec

(** {1 Queries made by the hardened runtime} *)

type fate =
  | Deliver  (** arrives normally *)
  | Delayed of Time.t  (** arrives after an extra fabric delay *)
  | Dropped  (** never arrives; recorded for retransmission *)

val delivery_fate : plan -> from_pe:int -> fate
(** Draw the fate of the sender's next fabric delivery from its per-PE
    stream. Counts drops/delays in {!stats}. *)

val compute_scale : plan -> gpu:int -> float
(** The device's compute-latency multiplier (1.0 when not a straggler). *)

val fabric_penalty : plan -> now:Time.t -> inter_node:bool -> Time.t * float
(** [(extra_latency, serialization_mult)] the fabric imposes at [now]:
    flap windows multiply serialization on every path; a NIC outage
    holds inter-node transfers until the outage interval ends. *)

(** {1 Lost-delivery registry}

    A dropped delivery's replay is filed under a key naming what its
    arrival would have satisfied (a destination signal flag, or the
    sender's plain-put set). The resilient waiter that times out on that
    key recovers and replays them — data before signal, like the
    original — charging the retransmission to itself. A replay is written
    as steps ({!Cpufree_engine.Engine.after}): called with a continuation,
    it runs that continuation once the delivery has landed. *)

val record_lost : plan -> key:string -> ((unit -> unit) -> unit) -> unit

val recover_lost : plan -> key:string -> ((unit -> unit) -> unit) list
(** Remove and return the key's lost deliveries, oldest first. *)

val lost_count : plan -> int
(** Lost deliveries not yet recovered (diagnostics). *)

(** {1 Fault and recovery accounting} *)

type stats = {
  dropped : int;  (** deliveries lost by the fabric *)
  delayed : int;  (** deliveries that drew an extra delay *)
  resent : int;  (** lost deliveries replayed by resilient waiters *)
  retried : int;  (** resilient-wait timeouts that led to a retry *)
}

val stats : plan -> stats
val note_retry : plan -> unit
val note_resent : plan -> int -> unit

(** {1 Fail-stop detection accounting}

    When a resilient waiter exhausts its retries against a peer whose
    scheduled death has passed, it diagnoses the fail-stop by raising
    {!Killed} instead of a generic stall. The waiter and the run that
    catches the abort record the death in the plan's obituary registry,
    which counts each dead PE once; recovery itself (checkpoint/restart on
    the survivors) happens above the run, in the stencil harness. *)

exception Killed of { pe : int; at : Time.t }
(** Raised by a resilient waiter that diagnoses a dead peer: [pe] is the
    dead PE, [at] its scheduled death time. *)

val note_obituary : plan -> pe:int -> unit
(** Record a detected death. Idempotent per PE: only the first report
    registers (and counts in {!recovery}). *)

type recovery_stats = { kills_detected : int  (** distinct dead PEs diagnosed *) }

val recovery : plan -> recovery_stats
