(** Machine description: a typed, routed topology graph.

    A machine is a directed graph of vertices (GPUs, hosts, NICs and internal
    switch fabric) connected by links (NVLink ports, PCIe lanes, InfiniBand
    hops). Every link carries its own first-byte latency, inverse bandwidth
    and the contention ports a transfer crossing it must book.

    Routes are shortest-latency and resolved {e on demand} by one router:
    lazy per-source Dijkstra rows, O(E log V) each from a binary heap,
    behind a bounded FIFO cache of 64 rows, plus an optional closed form
    that a constructor derives from its own shape. The cluster
    constructors ([Dgx], [Fat_tree], [Dragonfly]) have one: it computes
    each route in O(path length) — the unique tree path through node
    switch, NIC and spine on a DGX cluster, up/down through the fat tree,
    minimal local–global–local across the dragonfly — so a 1024-GPU
    machine never materializes an all-pairs table. A pair takes the
    Dijkstra row when the machine has no closed form ([Hgx], [Ring],
    [Pcie_only]), when the closed form declines it (e.g. a fat-tree
    core-switch endpoint), or when its closed path crosses a dead
    component. Either way one walker writes the route's link ids into a
    run's scratch buffer (a closed path's vertices first, each overwritten
    by the link leaving it; a row's [pred] links from the end), and every
    query reads that buffer in one pass: summed latency, bottleneck rate
    and the deduplicated ports as an [int array]. Resolving a pair
    allocates only its result.
    The Dijkstra is deterministic (vertices settle in (latency, hops, vertex
    id) order; ties broken by hop count, then link id) and a recomputed row
    is identical to an evicted one, so cache size never changes any route.

    A topology is two parts. Its graph (vertices, ports, links, adjacency,
    the GPU and host vertex maps and the closed form) is immutable, and
    each domain builds it once per (spec, profile, GPU count) and shares it
    between runs, with its GPU-pair latency bounds. Its run state (the
    route rows and their FIFO, the walk buffer and the port dedup bitset,
    the dead sets, {!degraded} and {!route_epoch}) is what
    resolution and fail-stop events mutate, and each {!instantiate} makes
    it fresh, so a run never sees another run's cache or failures. A
    topology value belongs to the domain that instantiated it. Vertex and
    port names are rendered when read, not stored.

    Every constructor builds from the same pieces — vertices, ports, and
    two-way hops added there then back; the cluster shapes attach each NIC
    with one recipe (vertex, tx port, rx port, PCIe attach pair,
    InfiniBand uplink pair). Creation order fixes every vertex, port and
    link id, and Dijkstra breaks its ties on those ids.

    The single-node HGX constructor reproduces the flat NVSwitch all-to-all
    the paper evaluates on, link for link: a GPU-to-GPU route totals exactly
    the architecture's NVLink latency and books exactly the source egress and
    destination ingress ports, which is what keeps every single-node figure
    byte-identical to the pre-graph fabric model. *)

module Time = Cpufree_engine.Time

(** {1 Link profile} *)

(** The latency/bandwidth numbers a constructor instantiates links from.
    Decoupled from [Cpufree_gpu.Arch] so the graph layer has no dependency on
    the GPU cost model; [Cpufree_gpu.Arch.fabric_profile] derives one from
    an architecture. *)
type profile = {
  pname : string;
  nvlink_latency : Time.t;  (** GPU-to-GPU wire + fabric first-byte latency *)
  nvlink_gbs : float;  (** per-direction NVLink port bandwidth, GB/s *)
  pcie_latency : Time.t;
  pcie_gbs : float;
  hbm_gbs : float;  (** local (same-endpoint) bandwidth *)
  ib_latency : Time.t;  (** inter-node InfiniBand first-byte latency *)
  ib_gbs : float;  (** NIC line rate, GB/s *)
}

(** {1 Graph} *)

type vertex_kind =
  | Gpu of { node : int; device : int }  (** [device] is the index within the node *)
  | Host of { node : int }
  | Nic of { node : int }
  | Switch of { node : int option }  (** [None]: inter-node core fabric *)

type vertex = {
  vid : int;
  kind : vertex_kind;
  vname : string;
  local_ns_per_byte : float;  (** serialization rate of a self-transfer *)
}

type link_kind = Nvlink | Pcie | Infiniband

type port = { pid : int; pname : string }
(** A contention point (an egress/ingress engine, a PCIe root, a NIC
    direction). Several links may share one port; a transfer books every
    port of every link on its route, once each. *)

type link = {
  lid : int;
  lsrc : int;  (** vertex id *)
  ldst : int;
  lkind : link_kind;
  llatency : Time.t;
  lns_per_byte : float;
  lports : int list;  (** port ids; may be empty for contention-free hops *)
}

type t

(** {1 Specs} *)

type spec =
  | Hgx
      (** Single node: the GPUs on an NVSwitch all-to-all, host on PCIe.
          The shape of the paper's 8-GPU HGX box, for any GPU count. *)
  | Ring
      (** No switch: each GPU links only to its two ring neighbours (full
          NVLink latency per hop); multi-hop routes book every intermediate
          GPU's egress and ingress ports. The host attaches to GPU 0 over
          PCIe (a head-node attach, so GPU-to-GPU routes never shortcut
          through the host). *)
  | Pcie_only
      (** No NVLink at all: every GPU and the host hang off one PCIe root
          complex. All peer traffic shares the root port — the pre-NVLink
          worst case. *)
  | Dgx of { nodes : int }
      (** [nodes] HGX nodes, each with its own host and an InfiniBand NIC
          hanging off the node switch; NICs meet at a global spine. An
          inter-node route pays the NIC attach on both sides plus the IB
          hop and books both NIC direction ports in addition to the GPU
          ports. The graph is a tree, so routing is structural: each route
          is its unique tree path. *)
  | Fat_tree of { arity : int; rails : int; gpus_per_node : int }
      (** k-ary fat tree of HGX nodes with [rails] independent
          NIC/leaf/spine planes per node. A leaf switch groups [arity]
          nodes; planes with more than one leaf add a spine layer every
          leaf connects to. Intra-leaf inter-node routes cost exactly
          [2*pcie + ib] (same as the dgx spine), cross-leaf routes
          [2*pcie + 2*ib]. Routing is structural up/down; rails and spines
          are chosen deterministically from the endpoint pair, spreading
          traffic without a route table. *)
  | Dragonfly of { a : int; p : int; h : int; gpus_per_node : int }
      (** Dragonfly of HGX nodes: groups of [a] routers with [p] nodes per
          router and [h] global links per router, groups connected
          all-to-all by an absolute arrangement. Local router-router hops
          cost [ib_latency]; global optical hops cost [3*ib_latency], which
          makes the minimal local–global–local route strictly shortest —
          structural routing coincides with Dijkstra. Requires
          [groups - 1 <= a*h] when more than one group is populated. *)

val spec_of_string : string -> (spec, string) result
(** ["hgx"], ["ring"], ["pcie"]/["pcie_only"], ["dgx"] (2 nodes), ["dgx:N"],
    ["fat-tree[:ARITY[:RAILS[:GPN]]]"] (defaults 4:1:8) or
    ["dragonfly[:A:P:H[:GPN]]"] (defaults 4:2:2:8). Case-insensitive. *)

val spec_to_string : spec -> string

val validate : spec -> gpus:int -> (unit, string) result
(** Check that the spec can be instantiated for [gpus] GPUs — a positive
    count, splitting evenly across [Dgx] nodes / [gpus_per_node], dragonfly
    group count within the global-link budget. Lets a CLI reject a bad
    combination with a friendly message instead of the [Invalid_argument]
    that {!instantiate} raises. *)

val instantiate : spec -> profile:profile -> gpus:int -> t
(** A healthy machine of the spec for a total of [gpus] GPUs: fresh run
    state over the graph this domain shares for ([spec], [profile],
    [gpus]), built on first use. The domain keeps the 16 graphs it used
    most recently. For [Dgx] the GPUs are split evenly across nodes; for
    [Fat_tree]/[Dragonfly] the node count is [gpus / gpus_per_node].
    Raises [Invalid_argument] when {!validate} would return [Error]. *)

val build : spec -> profile:profile -> gpus:int -> t
(** {!instantiate} over a graph built for this call alone and shared with
    nothing: what a shared instance must answer exactly like. *)

(** {1 Accessors} *)

val name : t -> string
val num_gpus : t -> int
val num_nodes : t -> int
val node_of_gpu : t -> int -> int

val vertices : t -> vertex list
val links : t -> link list
val ports : t -> port list
val num_vertices : t -> int
val num_ports : t -> int

val gpu_vertex : t -> int -> int
(** Vertex id of a global GPU index. *)

val host_vertex : t -> node:int -> int

(** {1 Routes}

    All functions below take vertex ids and raise [Invalid_argument] for an
    id out of range. A route from a vertex to itself is empty with zero
    latency and the vertex's local serialization rate. *)

val reachable : t -> src:int -> dst:int -> bool

val route : t -> src:int -> dst:int -> link list
(** The links of the shortest-latency route, in travel order. *)

val route_latency : t -> src:int -> dst:int -> Time.t
(** Sum of link latencies along the route. *)

val route_ns_per_byte : t -> src:int -> dst:int -> float
(** Bottleneck inverse bandwidth along the route. *)

val route_ports : t -> src:int -> dst:int -> int list
(** Port ids booked by a transfer on this route, deduplicated, in travel
    order. *)

type route_summary = {
  r_latency : Time.t;  (** {!route_latency} *)
  r_ns_per_byte : float;  (** {!route_ns_per_byte} *)
  r_ports : int array;  (** {!route_ports} *)
}

val route_summary : t -> src:int -> dst:int -> route_summary
(** The three queries above from one walk of the route: what the
    interconnect's pair memo keeps as a pair's entry. Each query above
    reads its field of its own summary. A closed-form route allocates
    only the record, the rate's float and the port array; a table route
    may also compute its source's row and grow the run's walk buffer to
    its length. Errors read as {!route_ports}'s. *)

val min_gpu_pair_latency : t -> Time.t option
(** Cheapest routed latency between two distinct GPUs of the healthy
    machine ([None] with < 2), whatever has failed since. O(1) on
    structural topologies (derived from tier latencies); on table-routed
    graphs one Dijkstra row per GPU, computed on the first query and kept
    with the shared graph. *)

val max_gpu_pair_latency : t -> Time.t option
(** Costliest routed latency between two distinct GPUs of the healthy
    machine ([None] with < 2), kept like {!min_gpu_pair_latency}'s. O(1)
    on dgx and fat-tree machines, O(groups²) on a dragonfly. Both pair
    bounds are exact on every constructor; a qcheck law holds the
    structural ones to a brute-force fold of the tests' linear-scan
    Dijkstra ([test/topo_oracle.ml]). *)

(** {1 Fail-stop degradation}

    Permanent component deaths. [fail_link]/[fail_switch] mark the named
    components dead, invalidate every cached route row and bump
    {!route_epoch}; later route queries re-resolve on the surviving
    subgraph (structural fabrics whose closed-form path crosses a corpse
    fall back to Dijkstra, which exploits the remaining rail/spine/router
    path diversity). Once degraded, an unroutable pair raises the
    diagnosed {!Partitioned} instead of [Invalid_argument]. Both
    operations are idempotent. *)

exception Partitioned of string
(** No surviving route between two endpoints on a degraded machine; the
    payload names the pair and the dead components. *)

val fail_link : t -> src:string -> dst:string -> unit
(** Kill every parallel link between the two named vertices, in both
    directions. Raises [Invalid_argument] if either name is unknown. *)

val fail_switch : t -> name:string -> unit
(** Kill the named vertex and every link incident to it. Raises
    [Invalid_argument] if the name is unknown. *)

val degraded : t -> bool
(** Whether any fail-stop event has been applied. [false] guarantees
    routing behaviour byte-identical to a machine that never had the
    fail-stop layer. *)

val route_epoch : t -> int
(** Monotonic counter bumped by every route invalidation — downstream
    per-pair memos compare it to decide staleness. 0 on a healthy
    machine. *)

val vertex_named : t -> string -> int option
(** Vertex id of the (case-insensitive) vertex name, if any. *)

val dead_vertices : t -> string list
(** Names of fail-stopped vertices, in vertex-id order. *)

val dead_links : t -> int list
(** Ids of fail-stopped links, ascending. A fail-stopped vertex has every
    incident link dead, so these ids alone give the surviving graph. *)

(** {1 Routing internals (introspection and tests)} *)

val routing_kind : t -> string
(** ["structural"] when the machine has a closed form (dgx-cluster,
    fat-tree, dragonfly), ["tables"] when every route is a Dijkstra row
    (hgx, ring, pcie-only). *)

val route_rows_cached : t -> int
(** Number of per-source rows currently cached, at most 64 (on a machine
    with a closed form only the pairs it declines or a failure diverts
    cache rows — normally 0). Rows evicted from the cache are recomputed
    identically, so its size changes no route. *)

val shortest_row : nv:int -> link list -> src:int -> int array * int array * int array
(** The production single-source search (binary heap) over an arbitrary
    graph of [nv] vertices and the given links: per-vertex latency in ns,
    hop count and incoming link id ([max_int], [max_int], [-1] when
    unreachable). Exposed so a law can hold it to the tests' linear-scan
    Dijkstra ([test/topo_oracle.ml]) on random graphs, whose ties and
    multi-hop shortcuts the named constructors rarely produce. Raises
    [Invalid_argument] for a source out of range. *)

val string_of_link_kind : link_kind -> string
val string_of_vertex_kind : vertex_kind -> string

val pp : Format.formatter -> t -> unit
(** One-line summary: name, GPU/node counts, graph size. *)

val pp_links : Format.formatter -> t -> unit
(** Per-link table (kind, endpoints, latency, bandwidth, ports). *)
