(** Machine description: a typed, routed topology graph.

    A machine is a directed graph of vertices (GPUs, hosts, NICs and internal
    switch fabric) connected by links (NVLink ports, PCIe lanes, InfiniBand
    hops). Every link carries its own first-byte latency, inverse bandwidth
    and the contention ports a transfer crossing it must book.

    Routes are shortest-latency and resolved {e on demand}. Structural
    topologies ({!dgx_cluster}, {!fat_tree}, {!dragonfly}) compute each route
    in O(path length) from the construction itself — the unique tree path
    through node switch, NIC and spine on a DGX cluster, up/down through the
    fat tree, minimal local–global–local across the dragonfly — so a
    1024-GPU machine never materializes an all-pairs table. The single-node
    and irregular topologies ({!hgx}, {!ring}, {!pcie_only}), degraded
    fabrics whose closed-form path crosses a dead component, and the rare
    structural pair the closed form declines (e.g. a fat-tree core-switch
    endpoint) fall back to lazy per-source Dijkstra rows, O(E log V) each
    from a binary heap, behind a bounded FIFO cache ({!set_route_cache}).
    The Dijkstra is deterministic (vertices settle in (latency, hops, vertex
    id) order; ties broken by hop count, then link id) and a recomputed row
    is identical to an evicted one, so cache size never changes any route;
    resolution is mutex-guarded, so concurrent domains may query one
    topology freely.

    The single-node HGX constructor reproduces the flat NVSwitch all-to-all
    the paper evaluates on, link for link: a GPU-to-GPU route totals exactly
    the architecture's NVLink latency and books exactly the source egress and
    destination ingress ports, which is what keeps every single-node figure
    byte-identical to the pre-graph fabric model. *)

module Time = Cpufree_engine.Time

(** {1 Link profile} *)

(** The latency/bandwidth numbers a constructor instantiates links from.
    Decoupled from [Cpufree_gpu.Arch] so the graph layer has no dependency on
    the GPU cost model; [Cpufree_gpu.Interconnect] derives a profile from its
    architecture, and {!a100}/{!h100} are standalone copies of the same
    published numbers. *)
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

val a100 : profile
val h100 : profile

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

(** {1 Constructors} *)

val hgx : profile:profile -> gpus:int -> t
(** Single node: [gpus] GPUs on an NVSwitch all-to-all, host on PCIe.
    The shape of the paper's 8-GPU HGX box, for any GPU count. *)

val dgx_cluster : profile:profile -> nodes:int -> gpus_per_node:int -> t
(** [nodes] HGX nodes, each with its own host and an InfiniBand NIC hanging
    off the node switch; NICs meet at a global spine. An inter-node route
    pays the NIC attach on both sides plus the IB hop and books both NIC
    direction ports in addition to the GPU ports. The graph is a tree, so
    routing is structural: each route is its unique tree path. *)

val ring : profile:profile -> gpus:int -> t
(** No switch: each GPU links only to its two ring neighbours (full NVLink
    latency per hop); multi-hop routes book every intermediate GPU's egress
    and ingress ports. The host attaches to GPU 0 over PCIe (a head-node
    attach, so GPU-to-GPU routes never shortcut through the host). *)

val pcie_only : profile:profile -> gpus:int -> t
(** No NVLink at all: every GPU and the host hang off one PCIe root complex.
    All peer traffic shares the root port — the pre-NVLink worst case. *)

val fat_tree :
  profile:profile -> arity:int -> rails:int -> nodes:int -> gpus_per_node:int -> t
(** k-ary fat tree of HGX nodes with [rails] independent NIC/leaf/spine
    planes per node. A leaf switch groups [arity] nodes; planes with more
    than one leaf add a spine layer every leaf connects to. Intra-leaf
    inter-node routes cost exactly [2*pcie + ib] (same as the dgx-cluster
    spine), cross-leaf routes [2*pcie + 2*ib]. Routing is structural
    up/down; rails and spines are chosen deterministically from the endpoint
    pair, spreading traffic without a route table. *)

val dragonfly :
  profile:profile -> a:int -> p:int -> h:int -> nodes:int -> gpus_per_node:int -> t
(** Dragonfly of HGX nodes: groups of [a] routers with [p] nodes per router
    and [h] global links per router, groups connected all-to-all by an
    absolute arrangement. Local router-router hops cost [ib_latency]; global
    optical hops cost [3*ib_latency], which makes the minimal
    local–global–local route strictly shortest — structural routing
    coincides with Dijkstra. Requires [groups - 1 <= a*h] when more than one
    group is populated. *)

(** {1 Specs (CLI-facing)} *)

type spec =
  | Hgx
  | Ring
  | Pcie_only
  | Dgx of { nodes : int }
  | Fat_tree of { arity : int; rails : int; gpus_per_node : int }
  | Dragonfly of { a : int; p : int; h : int; gpus_per_node : int }

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
(** Build the spec's graph for a total of [gpus] GPUs. For [Dgx] the GPUs are
    split evenly across nodes; for [Fat_tree]/[Dragonfly] the node count is
    [gpus / gpus_per_node]. Raises [Invalid_argument] when {!validate}
    would return [Error]. *)

(** {1 Accessors} *)

val name : t -> string
val num_gpus : t -> int
val num_nodes : t -> int
val node_of_gpu : t -> int -> int

val vertices : t -> vertex list
val links : t -> link list
val ports : t -> port list
val num_vertices : t -> int

val gpu_vertex : t -> int -> int
(** Vertex id of a global GPU index. *)

val host_vertex : t -> node:int -> int
val gpu_egress_port : t -> int -> int
val gpu_ingress_port : t -> int -> int

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

val min_gpu_pair_latency : t -> Time.t option
(** Cheapest routed latency between two distinct GPUs ([None] with < 2).
    O(1) on structural topologies (derived from tier latencies); the exact
    all-pairs fold only runs on irregular table-routed graphs. *)

val max_gpu_pair_latency : t -> Time.t option
(** Costliest routed latency between two distinct GPUs ([None] with < 2).
    O(1) on dgx and fat-tree machines, O(groups²) on a dragonfly; an
    all-pairs fold on table-routed graphs. *)

val min_host_gpu_latency : t -> Time.t option
(** Cheapest routed latency of any host-to-GPU or GPU-to-host route. The
    three pair bounds are exact on every constructor; a qcheck law holds the
    structural ones to a brute-force fold of {!dijkstra_reference}. *)

(** {1 Fail-stop degradation}

    Permanent component deaths. [fail_link]/[fail_switch] mark the named
    components dead, invalidate every cached route row and bump
    {!route_epoch}; later route queries re-resolve on the surviving
    subgraph (structural fabrics whose closed-form path crosses a corpse
    fall back to Dijkstra, which exploits the remaining rail/spine/router
    path diversity). Once degraded, an unroutable pair raises the
    diagnosed {!Partitioned} instead of [Invalid_argument]. Both
    operations are idempotent and mutex-guarded. *)

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

val dead_link_count : t -> int

(** {1 Routing internals (introspection and tests)} *)

val routing_kind : t -> string
(** ["structural"] (dgx-cluster/fat-tree/dragonfly closed-form paths) or
    ["tables"] (lazy per-source Dijkstra rows: hgx, ring, pcie-only). *)

val set_route_cache : t -> int -> unit
(** Cap the number of cached per-source Dijkstra rows (clamped to >= 1);
    evicts oldest rows immediately if over the new cap. Affects memory and
    speed only — recomputation is deterministic, so routes are identical at
    any cache size. Default: 64 rows. *)

val route_rows_cached : t -> int
(** Number of per-source rows currently cached (structural topologies only
    count fallback rows — normally 0). *)

val dijkstra_reference : t -> src:int -> dst:int -> (int list * Time.t) option
(** Freshly computed, never-cached shortest path: the link ids in travel
    order and the total latency, or [None] if unreachable. It runs its own
    O(V²) linear-scan Dijkstra, sharing no extract-min with the heap-backed
    tables, and is the oracle both those tables and the structural routers
    are property-tested against. Computed on the surviving subgraph once
    the machine is {!degraded}, so it is also the degraded-routing
    oracle. *)

val shortest_row : nv:int -> link list -> src:int -> int array * int array * int array
(** The production single-source search (binary heap) over an arbitrary
    graph of [nv] vertices and the given links: per-vertex latency in ns,
    hop count and incoming link id ([max_int], [max_int], [-1] when
    unreachable). Exposed so a law can hold it to {!reference_row} on
    random graphs, whose ties and multi-hop shortcuts the named
    constructors rarely produce. Raises [Invalid_argument] for a source out
    of range. *)

val reference_row : nv:int -> link list -> src:int -> int array * int array * int array
(** The same search with the linear-scan extract-min behind
    {!dijkstra_reference}. *)

val string_of_link_kind : link_kind -> string
val string_of_vertex_kind : vertex_kind -> string

val pp : Format.formatter -> t -> unit
(** One-line summary: name, GPU/node counts, graph size. *)

val pp_links : Format.formatter -> t -> unit
(** Per-link table (kind, endpoints, latency, bandwidth, ports). *)
