(** The machine's data fabric: a façade over a routed topology graph.

    The fabric instantiates a {!Cpufree_machine.Topology} (NVSwitch HGX node
    by default — the flat all-to-all of the paper's evaluation — or a ring,
    a PCIe-only box, a multi-node DGX cluster, a multi-rail fat tree or a
    dragonfly) and resolves each endpoint pair's route on first use into a
    memoized (wire latency, bottleneck inverse bandwidth, contention ports)
    entry, so the per-transfer hot path stays table lookups while only the
    pairs that actually communicate ever pay for routing — the memo is
    O(pairs used), not O(endpoints²).

    Each contention point (a GPU's egress/ingress engine, a host PCIe port,
    a NIC direction, a shared PCIe root) is a serially reusable bandwidth
    resource; a transfer books every port along its route for its
    serialization time, so simultaneous transfers that share any link of
    their paths queue behind each other — single-switch contention as
    before, plus NIC contention on inter-node routes. Latency additionally
    depends on who initiated the transfer: the paper's central quantitative
    point is that a GPU-initiated transfer skips microseconds of host-side
    setup. *)

type endpoint = Gpu of int | Host

type initiator = By_host | By_device

type t

val create :
  ?topology:Cpufree_machine.Topology.spec ->
  ?faults:Cpufree_fault.Fault.plan ->
  ?metrics:Cpufree_obs.Metrics.t ->
  Cpufree_engine.Engine.t ->
  arch:Arch.t ->
  num_gpus:int ->
  t
(** Build the fabric for [num_gpus] GPUs arranged per [topology] (default
    {!Cpufree_machine.Topology.Hgx}, which reproduces the flat NVSwitch
    model path for path). Per-pair routed latencies, inverse bandwidths and
    port sets are memoized lazily, on each pair's first transfer — creating
    a 1024-GPU fabric allocates O(endpoints), not O(endpoints²). [faults]
    activates fault-plan
    degradation on every transfer: link-flap serialization multipliers and
    NIC-outage holds on inter-node paths. [metrics] registers fabric
    instruments in the given registry — run totals ([fabric.transfers],
    [fabric.bytes]) plus per-port byte and busy-ns counters labelled with
    the port name — updated on every transfer. *)

val num_gpus : t -> int
val arch : t -> Arch.t

val topology : t -> Cpufree_machine.Topology.t
(** The instantiated machine graph behind the façade. *)

val num_nodes : t -> int
val node_of_gpu : t -> int -> int

val wire_latency : t -> src:endpoint -> dst:endpoint -> Cpufree_engine.Time.t
(** Routed wire latency between two endpoints, without initiator setup. *)

val min_gpu_wire_latency : t -> Cpufree_engine.Time.t
(** Cheapest routed GPU-pair wire latency; the architecture's NVLink latency
    when the machine has fewer than two GPUs. *)

val max_gpu_wire_latency : t -> Cpufree_engine.Time.t
(** Worst routed GPU-pair wire latency (the inter-node path on a cluster) —
    what a fabric-wide barrier must cover. *)

val transfer_time : t -> src:endpoint -> dst:endpoint -> initiator:initiator -> bytes:int -> Cpufree_engine.Time.t
(** Uncontended duration (latency + serialization) of a transfer; pure
    (never includes fault-plan degradation). *)

val fault_hold : t -> src:endpoint -> dst:endpoint -> Cpufree_engine.Time.t
(** Extra latency the fault plan imposes on this path right now (a NIC
    outage holding inter-node traffic); {!Cpufree_engine.Time.zero} without
    an active plan. Used by the NVSHMEM layer for standalone signal ops,
    which bypass {!transfer}. *)

val transfer :
  t -> src:endpoint -> dst:endpoint -> initiator:initiator -> bytes:int ->
  ?trace_lane:string -> ?label:string -> unit -> unit
(** Perform a transfer from the calling process: books every port on the
    route and blocks until the last byte lands. Same-device "transfers" cost
    HBM time only; zero-byte transfers cost only latency. Every transfer is
    logged as communication in the engine's busy log; it is also recorded
    as a span on [trace_lane] when one is given and the engine has a
    trace. It is {!transfer_steps} with [wait] a
    {!Cpufree_engine.Engine.delay}. *)

val transfer_steps :
  t -> src:endpoint -> dst:endpoint -> initiator:initiator -> bytes:int ->
  ?trace_lane:string -> ?label:string ->
  wait:(Cpufree_engine.Time.t -> (unit -> unit) -> unit) -> (unit -> unit) -> unit
(** {!transfer} for a caller that cannot block, such as a step of a
    {!Cpufree_engine.Engine.spawn_callbacks} process: books the route and
    counts the transfer at the current time, then calls [wait d landed],
    where [d] is how long until the last byte lands and [landed] logs the
    transfer as {!transfer} does, then runs the last argument. [wait] must
    run [landed] exactly [d] later. *)

val bytes_moved : t -> int
(** Total payload bytes transported so far. *)

val transfers : t -> int

val pairs_resolved : t -> int
(** Number of endpoint pairs whose routes have been resolved into the memo
    so far — the footprint the lazy fill actually paid for. *)

val port_busy : t -> gpu:int -> Cpufree_engine.Time.t * Cpufree_engine.Time.t
(** (egress, ingress) cumulative busy time of a GPU's ports. *)
