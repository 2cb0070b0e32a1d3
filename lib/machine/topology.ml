module Time = Cpufree_engine.Time

type profile = {
  pname : string;
  nvlink_latency : Time.t;
  nvlink_gbs : float;
  pcie_latency : Time.t;
  pcie_gbs : float;
  hbm_gbs : float;
  ib_latency : Time.t;
  ib_gbs : float;
}

type vertex_kind =
  | Gpu of { node : int; device : int }
  | Host of { node : int }
  | Nic of { node : int }
  | Switch of { node : int option }

type vertex = {
  vid : int;
  kind : vertex_kind;
  vname : string;
  local_ns_per_byte : float;
}

type link_kind = Nvlink | Pcie | Infiniband

type port = { pid : int; pname : string }

type link = {
  lid : int;
  lsrc : int;
  ldst : int;
  lkind : link_kind;
  llatency : Time.t;
  lns_per_byte : float;
  lports : int list;
}

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

(* What a vertex is, kept as an immediate beside its position (two
   indices packed by [pos]). Its kind and its name are rendered from the
   two on read, the way process names and lanes are, so a graph stores no
   string per vertex or port. *)
type role =
  | R_gpu (* a: global GPU index *)
  | R_nvswitch (* a: node *)
  | R_host (* a: node *)
  | R_nic (* a: node *)
  | R_rail_nic (* a: node, b: rail *)
  | R_ib_spine
  | R_leaf (* a: rail, b: leaf *)
  | R_spine (* a: rail, b: spine *)
  | R_router (* a: group, b: router *)
  | R_pcie_root

let pos a b = (a lsl 24) lor b

(* A port is named after the vertex that owns it, plus a suffix. *)
type suffix = Whole | Egress | Ingress | Pcie_port | Tx | Rx

(* Compressed rows: row [r] holds [ids.(off.(r))] to [ids.(off.(r + 1) - 1)]. *)
type csr = { off : int array; ids : int array }

(* Group [0 .. count - 1] into [rows] rows by [key], ascending within each
   row: a counting sort, so nothing already in order is sorted again. *)
let csr ~rows ~count key =
  let off = Array.make (rows + 1) 0 in
  for i = 0 to count - 1 do
    let r = key i + 1 in
    off.(r) <- off.(r) + 1
  done;
  for r = 1 to rows do
    off.(r) <- off.(r) + off.(r - 1)
  done;
  let next = Array.sub off 0 rows and ids = Array.make count 0 in
  for i = 0 to count - 1 do
    let r = key i in
    ids.(next.(r)) <- i;
    next.(r) <- next.(r) + 1
  done;
  { off; ids }

(* A constructor's closed form: an O(path-length) vertex-path function
   derived from the construction (the unique tree path for a dgx cluster,
   up/down for fat-tree, minimal local-global-local for dragonfly), so
   nothing quadratic is ever materialized, plus GPU-pair latency bounds
   derived from tier latencies (profile numbers and shape counts) rather
   than from any route fold. [spath buf src dst] writes the full vertex
   sequence, src..dst, into [buf] from index 0 and returns its length, at
   most [closed_path_max]; it returns -1 for the pairs it declines
   (fat-tree core-switch endpoints, cross-rail NIC pairs), which take the
   Dijkstra rows. *)
type closed = {
  spath : int array -> int -> int -> int;
  min_gpu : Time.t option;
  max_gpu : Time.t option;
}

(* The longest closed path, a dragonfly's: three vertices up to the NIC,
   four routers, three down from the NIC. A run's walk buffer starts at
   this length and grows only for a longer Dijkstra route. *)
let closed_path_max = 10

(* The immutable part of a machine, shared by every instance of its
   (spec, profile, GPU count) within a domain. Vertices, ports and links
   are parallel arrays indexed by their ids. *)
type graph = {
  tname : string;
  nodes : int;
  gpus : int;
  local_nsb : float; (* every vertex's self-transfer rate *)
  v_role : role array;
  v_pos : int array;
  p_owner : int array; (* vertex id *)
  p_suffix : suffix array;
  l_src : int array;
  l_dst : int array;
  l_kind : link_kind array;
  l_lat : Time.t array;
  l_nsb : float array;
  l_ports : csr; (* each link's ports, in booking order *)
  adj : csr; (* each vertex's out-links, ascending id *)
  gpu_vid : int array;
  host_vid : int array;
  closed : closed option;
  gpu_bounds : (Time.t option * Time.t option) Lazy.t; (* cheapest, costliest GPU pair *)
}

let num_v g = Array.length g.v_role
let gpus_per_node g = g.gpus / g.nodes

let vertex_kind g v =
  let a = g.v_pos.(v) lsr 24 in
  match g.v_role.(v) with
  | R_gpu ->
    let per = gpus_per_node g in
    Gpu { node = a / per; device = a mod per }
  | R_nvswitch -> Switch { node = Some a }
  | R_pcie_root -> Switch { node = Some 0 }
  | R_host -> Host { node = a }
  | R_nic | R_rail_nic -> Nic { node = a }
  | R_ib_spine | R_leaf | R_spine | R_router -> Switch { node = None }

let vertex_name g v =
  let p = g.v_pos.(v) in
  let a = p lsr 24 and b = p land 0xff_ffff in
  match g.v_role.(v) with
  | R_gpu -> Printf.sprintf "gpu%d" a
  | R_nvswitch -> Printf.sprintf "node%d.nvswitch" a
  | R_host -> if a = 0 then "host" else Printf.sprintf "node%d.host" a
  | R_nic -> Printf.sprintf "node%d.nic" a
  | R_rail_nic -> Printf.sprintf "node%d.nic%d" a b
  | R_ib_spine -> "ib.spine"
  | R_leaf -> Printf.sprintf "rail%d.leaf%d" a b
  | R_spine -> Printf.sprintf "rail%d.spine%d" a b
  | R_router -> Printf.sprintf "g%d.r%d" a b
  | R_pcie_root -> "pcie.root"

let port_name g p =
  vertex_name g g.p_owner.(p)
  ^
  match g.p_suffix.(p) with
  | Whole -> ""
  | Egress -> ".egress"
  | Ingress -> ".ingress"
  | Pcie_port -> ".pcie"
  | Tx -> ".tx"
  | Rx -> ".rx"

let link_ports g l =
  let o = g.l_ports.off.(l) in
  List.init (g.l_ports.off.(l + 1) - o) (fun k -> g.l_ports.ids.(o + k))

let vertex_at g v =
  { vid = v; kind = vertex_kind g v; vname = vertex_name g v; local_ns_per_byte = g.local_nsb }

let port_at g p = { pid = p; pname = port_name g p }

let link_at g l =
  {
    lid = l;
    lsrc = g.l_src.(l);
    ldst = g.l_dst.(l);
    lkind = g.l_kind.(l);
    llatency = g.l_lat.(l);
    lns_per_byte = g.l_nsb.(l);
    lports = link_ports g l;
  }

(* The lowest-id link from [u] to [v], or -1. *)
let edge g u v =
  let i = ref g.adj.off.(u) and stop = g.adj.off.(u + 1) in
  while !i < stop && g.l_dst.(g.adj.ids.(!i)) <> v do
    incr i
  done;
  if !i = stop then -1 else g.adj.ids.(!i)

(* ------------------------------------------------------------------ *)
(* Routing state                                                       *)
(* ------------------------------------------------------------------ *)

(* One single-source shortest-path solution: [dist]/[hops] in integer ns and
   hop count, [pred] the incoming link id of the shortest route (same
   deterministic tie-breaks as the original eager all-pairs build: shortest
   latency, then fewest hops, then lowest incoming link id). *)
type row = { rsrc : int; dist : int array; hops : int array; pred : int array }

exception Partitioned of string

(* One run's view of a shared graph: everything a run mutates. *)
type t = {
  g : graph;
  (* Bounded per-source route cache. Rows are recomputed on demand after an
     eviction; Dijkstra here is deterministic, so a recomputed row is
     identical to the evicted one and cache size never changes any route. *)
  mutable rows : row option array; (* indexed by source vid; empty until the first row *)
  fifo : int Queue.t; (* cached sources, oldest first *)
  dedup : Bytes.t; (* reusable port bitset for a route's ports *)
  mutable walk : int array; (* scratch: a closed path's vertices, then a route's links *)
  dead_vs : Bytes.t; (* fail-stopped vertices *)
  dead_ls : Bytes.t; (* fail-stopped links *)
  mutable degraded : bool; (* any fail_link/fail_switch applied *)
  mutable route_epoch : int; (* bumped on every route invalidation *)
}

let route_cache_rows = 64
let is_set set i = Bytes.get set i <> '\000'
let nsb gbs = 1.0 /. gbs

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

(* Every list holds its newest item first, so item [i] of a list of [n]
   has id [n - 1 - i]. *)
type builder = {
  mutable bvs : (role * int) list;
  mutable bps : (int * suffix) list;
  mutable bls : link list;
  mutable nv : int;
  mutable np : int;
  mutable nl : int;
}

let builder () = { bvs = []; bps = []; bls = []; nv = 0; np = 0; nl = 0 }

let add_vertex b role p =
  let vid = b.nv in
  b.nv <- vid + 1;
  b.bvs <- (role, p) :: b.bvs;
  vid

let add_port b ~owner suffix =
  let pid = b.np in
  b.np <- pid + 1;
  b.bps <- (owner, suffix) :: b.bps;
  pid

let add_link b ~src ~dst ~kind ~latency ~ns_per_byte ~ports =
  let lid = b.nl in
  b.nl <- lid + 1;
  b.bls <-
    { lid; lsrc = src; ldst = dst; lkind = kind; llatency = latency; lns_per_byte = ns_per_byte; lports = ports }
    :: b.bls

(* Both directions of a hop: [src] to [dst] with [there]'s latency and
   ports, then back with [back]'s. *)
let add_hop b ~src ~dst ~kind ~ns_per_byte ~there:(latency, ports) ~back:(latency', ports') =
  add_link b ~src ~dst ~kind ~latency ~ns_per_byte ~ports;
  add_link b ~src:dst ~dst:src ~kind ~latency:latency' ~ns_per_byte ~ports:ports'

(* Deterministic single-source Dijkstra: shortest total latency, ties broken
   by fewest hops, then by the incoming link id — a pure function of the
   graph, independent of hash order and of when (or how often) it runs, so
   lazy resolution is byte-identical to the old eager all-pairs build.
   [?dead] restricts the search to the surviving subgraph after fail-stop
   events: dead vertices are never visited and dead links never relaxed, so
   a row computed while degraded routes around the corpses (a row from a
   dead source reaches nothing).

   Vertices settle in (dist, hops, vid) order from a binary heap with lazy
   deletion: a relaxation that strictly improves (dist, hops) pushes a new
   entry, so a vertex's stale entries always sort after its live one and
   are skipped as already visited. An equal-cost relaxation only moves
   [pred] to the lower link id, which leaves the entry's key unchanged. *)
let dead_preds = function
  | None -> ((fun _ -> false), fun _ -> false)
  | Some (dvs, dls) -> (is_set dvs, is_set dls)

let row_init nv src =
  let dist = Array.make nv max_int and hops = Array.make nv max_int in
  dist.(src) <- 0;
  hops.(src) <- 0;
  { rsrc = src; dist; hops; pred = Array.make nv (-1) (* incoming link id *) }

let settle_order (d1, h1, v1) (d2, h2, v2) =
  if d1 <> d2 then Int.compare d1 d2 else if h1 <> h2 then Int.compare h1 h2 else Int.compare v1 v2

(* [adj] is the out-adjacency, [dst] and [lat] each link's head and
   latency by link id. *)
let dijkstra_row ?dead ~adj ~dst ~lat src =
  let nv = Array.length adj.off - 1 in
  let dead_v, dead_l = dead_preds dead in
  let r = row_init nv src in
  let { dist; hops; pred; _ } = r in
  let visited = Array.make nv false in
  let frontier = Cpufree_engine.Heap.create ~cmp:settle_order in
  if not (dead_v src) then Cpufree_engine.Heap.push frontier (0, 0, src);
  let rec loop () =
    match Cpufree_engine.Heap.pop frontier with
    | None -> ()
    | Some (_, _, u) when visited.(u) -> loop ()
    | Some (du, hu, u) ->
      visited.(u) <- true;
      for i = adj.off.(u) to adj.off.(u + 1) - 1 do
        let l = adj.ids.(i) in
        let v = dst.(l) in
        if (not visited.(v)) && (not (dead_l l)) && not (dead_v v) then begin
          let nd = du + Time.to_ns lat.(l) and nh = hu + 1 in
          if nd < dist.(v) || (nd = dist.(v) && nh < hops.(v)) then begin
            dist.(v) <- nd;
            hops.(v) <- nh;
            pred.(v) <- l;
            Cpufree_engine.Heap.push frontier (nd, nh, v)
          end
          else if nd = dist.(v) && nh = hops.(v) && l < pred.(v) then pred.(v) <- l
        end
      done;
      loop ()
  in
  loop ();
  r

(* O(V + E) coverage check from/to one pivot, replacing the old all-pairs
   route validation: if the pivot reaches every public endpoint and every
   public endpoint reaches the pivot, then by transitivity every public
   pair is mutually routable. [rows] is the adjacency to walk and [next]
   the vertex a link of it leads to. *)
let bfs_cover ~nv rows next start =
  let seen = Array.make nv false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for i = rows.off.(u) to rows.off.(u + 1) - 1 do
      let v = next.(rows.ids.(i)) in
      if not seen.(v) then begin
        seen.(v) <- true;
        Queue.add v q
      end
    done
  done;
  seen

(* The cheapest and the costliest route between two distinct GPUs of a
   healthy graph without a closed form: one Dijkstra row per GPU, whose
   [dist] is each route's summed latency. *)
let table_gpu_bounds ~adj ~dst ~lat gpu_vid =
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun src ->
      let r = dijkstra_row ~adj ~dst ~lat src in
      Array.iter
        (fun v ->
          if v <> src then begin
            lo := min !lo r.dist.(v);
            hi := max !hi r.dist.(v)
          end)
        gpu_vid)
    gpu_vid;
  (Some (Time.ns !lo), Some (Time.ns !hi))

(* The builder's lists become id-indexed arrays by writing each item at
   its id: newest first, so nothing is sorted or reversed. *)
let finish ?closed b ~name ~nodes ~gpu_vid ~host_vid ~(profile : profile) =
  let nv = b.nv and np = b.np and nl = b.nl in
  let v_role = Array.make nv R_gpu and v_pos = Array.make nv 0 in
  List.iteri
    (fun i (role, p) ->
      v_role.(nv - 1 - i) <- role;
      v_pos.(nv - 1 - i) <- p)
    b.bvs;
  let p_owner = Array.make np 0 and p_suffix = Array.make np Whole in
  List.iteri
    (fun i (owner, suffix) ->
      p_owner.(np - 1 - i) <- owner;
      p_suffix.(np - 1 - i) <- suffix)
    b.bps;
  let l_src = Array.make nl 0 and l_dst = Array.make nl 0 and l_kind = Array.make nl Nvlink in
  let l_lat = Array.make nl Time.zero and l_nsb = Array.make nl 0.0 in
  let port_off = Array.make (nl + 1) 0 in
  List.iter
    (fun l ->
      l_src.(l.lid) <- l.lsrc;
      l_dst.(l.lid) <- l.ldst;
      l_kind.(l.lid) <- l.lkind;
      l_lat.(l.lid) <- l.llatency;
      l_nsb.(l.lid) <- l.lns_per_byte;
      port_off.(l.lid + 1) <- List.length l.lports)
    b.bls;
  for l = 1 to nl do
    port_off.(l) <- port_off.(l) + port_off.(l - 1)
  done;
  let port_ids = Array.make port_off.(nl) 0 in
  List.iter (fun l -> List.iteri (fun k p -> port_ids.(port_off.(l.lid) + k) <- p) l.lports) b.bls;
  let adj = csr ~rows:nv ~count:nl (Array.get l_src) in
  let gpu_bounds =
    match closed with
    | _ when Array.length gpu_vid < 2 -> Lazy.from_val (None, None)
    | Some c -> Lazy.from_val (c.min_gpu, c.max_gpu)
    | None -> lazy (table_gpu_bounds ~adj ~dst:l_dst ~lat:l_lat gpu_vid)
  in
  let g =
    {
      tname = name;
      nodes;
      gpus = Array.length gpu_vid;
      local_nsb = nsb profile.hbm_gbs;
      v_role;
      v_pos;
      p_owner;
      p_suffix;
      l_src;
      l_dst;
      l_kind;
      l_lat;
      l_nsb;
      l_ports = { off = port_off; ids = port_ids };
      adj;
      gpu_vid;
      host_vid;
      closed;
      gpu_bounds;
    }
  in
  (* Every public endpoint must be able to reach every other one. *)
  let nics =
    List.filter
      (fun v -> match v_role.(v) with R_nic | R_rail_nic -> true | _ -> false)
      (List.init nv Fun.id)
  in
  (match Array.to_list gpu_vid @ Array.to_list host_vid @ nics with
  | [] -> ()
  | p0 :: _ as publics ->
    let fwd = bfs_cover ~nv g.adj l_dst p0 in
    let bwd = bfs_cover ~nv (csr ~rows:nv ~count:nl (Array.get l_dst)) l_src p0 in
    let unreachable a b =
      invalid_arg
        (Printf.sprintf "Topology.%s: %s cannot reach %s" name (vertex_name g a) (vertex_name g b))
    in
    List.iter
      (fun v ->
        if not fwd.(v) then unreachable p0 v;
        if not bwd.(v) then unreachable v p0)
      publics);
  g
(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let check_gpus name gpus =
  if gpus <= 0 then invalid_arg (Printf.sprintf "Topology.%s: need at least one GPU" name)

(* Split a latency across the two hops of a switch crossing so the pair sums
   back exactly even when the total is odd. *)
let halves l =
  let dn = Time.ns (Time.to_ns l / 2) in
  (dn, Time.sub l dn)

(* Closed-form path pieces shared by the cluster constructors. Each
   writes vertices into [buf] from index [i] and returns the index after
   the last one it wrote. [via_switch] is the same-node route through node
   switch [sw], from index 0; [to_nic] the chain from a node vertex up to
   (and including) the NIC [nic] it leaves the node by, and [from_nic] the
   same chain walked down. *)
let put buf i v =
  buf.(i) <- v;
  i + 1

let via_switch buf sw src dst =
  let i = put buf 0 src in
  let i = if src = sw then i else put buf i sw in
  if dst = sw then i else put buf i dst

let to_nic buf i ~sw ~nic v =
  if v = nic then put buf i v
  else if v = sw then put buf (put buf i v) nic
  else put buf (put buf (put buf i v) sw) nic

let from_nic buf i ~sw ~nic v =
  if v = nic then put buf i v
  else if v = sw then put buf (put buf i nic) v
  else put buf (put buf (put buf i nic) sw) v

(* [nodes] HGX nodes of [gpus_per_node] GPUs each. A node is its NVSwitch,
   its GPUs around the switch and its host on PCIe, then [attach node sw],
   so the node's NICs follow it in id order. The hop latencies are chosen
   so every two-hop route sums to exactly the profile's wire latency:
   egress + ingress = nvlink, egress + switch-to-host = pcie,
   host-to-switch + ingress = pcie. Returns the GPU vertices, the node
   switches and the hosts. *)
let add_nodes b ~profile:p ~nodes ~gpus_per_node attach =
  let e_lat, i_lat = halves p.nvlink_latency in
  let gpu_vid = Array.make (nodes * gpus_per_node) (-1) in
  let node_sw = Array.make nodes (-1) and host_vid = Array.make nodes (-1) in
  for node = 0 to nodes - 1 do
    let sw = add_vertex b R_nvswitch (pos node 0) in
    node_sw.(node) <- sw;
    for d = 0 to gpus_per_node - 1 do
      let g = (node * gpus_per_node) + d in
      let v = add_vertex b R_gpu (pos g 0) in
      gpu_vid.(g) <- v;
      let ep = add_port b ~owner:v Egress in
      let ip = add_port b ~owner:v Ingress in
      add_hop b ~src:v ~dst:sw ~kind:Nvlink ~ns_per_byte:(nsb p.nvlink_gbs)
        ~there:(e_lat, [ ep ]) ~back:(i_lat, [ ip ])
    done;
    let host = add_vertex b R_host (pos node 0) in
    host_vid.(node) <- host;
    let hp = add_port b ~owner:host Pcie_port in
    add_hop b ~src:host ~dst:sw ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
      ~there:(Time.sub p.pcie_latency i_lat, [ hp ])
      ~back:(Time.sub p.pcie_latency e_lat, [ hp ]);
    attach node sw
  done;
  (gpu_vid, node_sw, host_vid)

(* A NIC of [role] at position [at] hanging off node switch [sw]: the NIC
   vertex, its tx then rx port, the PCIe attach pair (at PCIe latency and the NIC's line
   rate, shared with nothing: contention lives on the NIC's tx/rx ports),
   then the InfiniBand uplink pair to [uplink], booking tx up and rx
   down. *)
let add_nic b ~profile:p role ~at ~sw ~uplink =
  let e_lat, i_lat = halves p.nvlink_latency in
  let ib_dn, ib_up = halves p.ib_latency in
  let nic = add_vertex b role at in
  let tx = add_port b ~owner:nic Tx in
  let rx = add_port b ~owner:nic Rx in
  add_hop b ~src:sw ~dst:nic ~kind:Pcie ~ns_per_byte:(nsb p.ib_gbs)
    ~there:(Time.sub p.pcie_latency e_lat, [])
    ~back:(Time.sub p.pcie_latency i_lat, []);
  add_hop b ~src:nic ~dst:uplink ~kind:Infiniband ~ns_per_byte:(nsb p.ib_gbs)
    ~there:(ib_dn, [ tx ]) ~back:(ib_up, [ rx ]);
  nic

(* The node of every node-local vertex (GPU, host, node switch and each
   NIC of [nics], indexed by node); -1 for the core fabric. *)
let vertex_nodes b ~gpus_per_node ~gpu_vid ~node_sw ~host_vid nics =
  let vnode = Array.make b.nv (-1) in
  Array.iteri (fun g v -> vnode.(v) <- g / gpus_per_node) gpu_vid;
  List.iter (Array.iteri (fun n v -> vnode.(v) <- n)) (node_sw :: host_vid :: nics);
  vnode

let hgx ~profile ~gpus =
  check_gpus "hgx" gpus;
  let b = builder () in
  let gpu_vid, _, host_vid = add_nodes b ~profile ~nodes:1 ~gpus_per_node:gpus (fun _ _ -> ()) in
  finish b ~profile ~name:(Printf.sprintf "hgx_%s" profile.pname) ~nodes:1 ~gpu_vid ~host_vid

let dgx_cluster ~profile:p ~nodes ~gpus_per_node =
  if nodes <= 0 then invalid_arg "Topology.dgx_cluster: need at least one node";
  check_gpus "dgx_cluster" gpus_per_node;
  let b = builder () in
  let spine = add_vertex b R_ib_spine 0 in
  let nic_vid = Array.make nodes (-1) in
  let gpu_vid, node_sw, host_vid =
    add_nodes b ~profile:p ~nodes ~gpus_per_node (fun node sw ->
        nic_vid.(node) <- add_nic b ~profile:p R_nic ~at:(pos node 0) ~sw ~uplink:spine)
  in
  (* The cluster is a tree (spine - NIC - node switch - GPUs/host), so the
     closed path is the unique route Dijkstra would find: through the
     node switch within a node, up to the spine and down again across
     nodes. Only the spine belongs to no node. *)
  let vnode = vertex_nodes b ~gpus_per_node ~gpu_vid ~node_sw ~host_vid [ nic_vid ] in
  let spath buf src dst =
    let ns = vnode.(src) and nd = vnode.(dst) in
    if ns >= 0 && ns = nd then via_switch buf node_sw.(ns) src dst
    else
      let i = if ns < 0 then 0 else to_nic buf 0 ~sw:node_sw.(ns) ~nic:nic_vid.(ns) src in
      let i = put buf i spine in
      if nd < 0 then i else from_nic buf i ~sw:node_sw.(nd) ~nic:nic_vid.(nd) dst
  in
  let remote = Time.add (Time.add p.pcie_latency p.pcie_latency) p.ib_latency in
  let min_gpu =
    if gpus_per_node >= 2 then Some p.nvlink_latency else if nodes >= 2 then Some remote else None
  in
  let max_gpu =
    if nodes >= 2 then Some remote else if gpus_per_node >= 2 then Some p.nvlink_latency else None
  in
  finish ~closed:{ spath; min_gpu; max_gpu } b ~profile:p
    ~name:(Printf.sprintf "dgx_%s_%dx%d" p.pname nodes gpus_per_node)
    ~nodes ~gpu_vid ~host_vid

let ring ~profile:p ~gpus =
  check_gpus "ring" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  for g = 0 to gpus - 1 do
    let v = add_vertex b R_gpu (pos g 0) in
    gpu_vid.(g) <- v;
    gpu_eport.(g) <- add_port b ~owner:v Egress;
    gpu_iport.(g) <- add_port b ~owner:v Ingress
  done;
  for g = 0 to gpus - 1 do
    let neighbours =
      List.sort_uniq compare [ (g + 1) mod gpus; (g + gpus - 1) mod gpus ]
    in
    List.iter
      (fun n ->
        if n <> g then
          add_link b ~src:gpu_vid.(g) ~dst:gpu_vid.(n) ~kind:Nvlink ~latency:p.nvlink_latency
            ~ns_per_byte:(nsb p.nvlink_gbs) ~ports:[ gpu_eport.(g); gpu_iport.(n) ])
      neighbours
  done;
  let host = add_vertex b R_host 0 in
  let hp = add_port b ~owner:host Pcie_port in
  (* Head-node attach: the host reaches the ring through GPU 0 only, so
     GPU-to-GPU routes can never shortcut through the host. *)
  add_hop b ~src:host ~dst:gpu_vid.(0) ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
    ~there:(p.pcie_latency, [ hp; gpu_iport.(0) ])
    ~back:(p.pcie_latency, [ gpu_eport.(0); hp ]);
  finish b ~profile:p
    ~name:(Printf.sprintf "ring_%s" p.pname)
    ~nodes:1 ~gpu_vid ~host_vid:[| host |]

let pcie_only ~profile:p ~gpus =
  check_gpus "pcie_only" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1) in
  let dn, up = halves p.pcie_latency in
  let root = add_vertex b R_pcie_root 0 in
  let root_port = add_port b ~owner:root Whole in
  for g = 0 to gpus - 1 do
    let v = add_vertex b R_gpu (pos g 0) in
    gpu_vid.(g) <- v;
    let ep = add_port b ~owner:v Egress in
    let ip = add_port b ~owner:v Ingress in
    (* The shared root complex is booked once, on the upstream hop. *)
    add_hop b ~src:v ~dst:root ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
      ~there:(dn, [ ep; root_port ]) ~back:(up, [ ip ])
  done;
  let host = add_vertex b R_host 0 in
  let hp = add_port b ~owner:host Pcie_port in
  add_hop b ~src:host ~dst:root ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
    ~there:(dn, [ hp; root_port ]) ~back:(up, [ hp ]);
  finish b ~profile:p
    ~name:(Printf.sprintf "pcie_%s" p.pname)
    ~nodes:1 ~gpu_vid ~host_vid:[| host |]

(* ---------------------------------------------------------------- *)
(* Fat tree                                                          *)
(* ---------------------------------------------------------------- *)

(* k-ary fat tree of HGX nodes with multi-rail NICs: rail [r] of every node
   attaches to leaf-switch plane [r]; a leaf groups [arity] nodes; planes
   with more than one leaf add a spine layer every leaf connects to. Hop
   latencies reuse the DGX halving scheme, so an intra-leaf inter-node
   route costs exactly 2*pcie + ib (identical to the dgx-cluster spine) and
   a cross-leaf route 2*pcie + 2*ib. Routing is closed-form up/down: no
   route table is ever materialized, and rails/spines are picked
   deterministically from the endpoint pair so traffic spreads without
   breaking determinism. *)
let fat_tree ~profile:p ~arity ~rails ~nodes ~gpus_per_node =
  if arity <= 0 then invalid_arg "Topology.fat_tree: arity must be positive";
  if rails <= 0 then invalid_arg "Topology.fat_tree: rails must be positive";
  if nodes <= 0 then invalid_arg "Topology.fat_tree: need at least one node";
  check_gpus "fat_tree" gpus_per_node;
  let b = builder () in
  let nic_vid = Array.make_matrix nodes rails (-1) in
  let leaves = (nodes + arity - 1) / arity in
  let spines = if leaves > 1 then max 1 ((leaves + 1) / 2) else 0 in
  let ib_dn, ib_up = halves p.ib_latency in
  let leaf_vid = Array.make_matrix rails leaves (-1) in
  let spine_vid = Array.make_matrix rails (max spines 1) (-1) in
  for r = 0 to rails - 1 do
    for l = 0 to leaves - 1 do
      leaf_vid.(r).(l) <- add_vertex b R_leaf (pos r l)
    done;
    for s = 0 to spines - 1 do
      spine_vid.(r).(s) <- add_vertex b R_spine (pos r s)
    done;
    (* Core crossings split the IB latency like the NIC attach, so leaf-leaf
       via a spine adds exactly one extra ib_latency. Contention lives on
       the NIC tx/rx ports; the over-provisioned core is contention-free. *)
    for l = 0 to leaves - 1 do
      for s = 0 to spines - 1 do
        add_hop b ~src:leaf_vid.(r).(l) ~dst:spine_vid.(r).(s) ~kind:Infiniband
          ~ns_per_byte:(nsb p.ib_gbs) ~there:(ib_dn, []) ~back:(ib_up, [])
      done
    done
  done;
  let gpu_vid, node_sw, host_vid =
    add_nodes b ~profile:p ~nodes ~gpus_per_node (fun node sw ->
        for r = 0 to rails - 1 do
          nic_vid.(node).(r) <-
            add_nic b ~profile:p R_rail_nic ~at:(pos node r) ~sw ~uplink:leaf_vid.(r).(node / arity)
        done)
  in
  (* Vertex roles for the closed path function. *)
  let vnode = vertex_nodes b ~gpus_per_node ~gpu_vid ~node_sw ~host_vid [] in
  let vrail = Array.make b.nv (-1) in
  Array.iteri
    (fun n per_rail ->
      Array.iteri
        (fun r v ->
          vnode.(v) <- n;
          vrail.(v) <- r)
        per_rail)
    nic_vid;
  let spath buf src dst =
    let ns = vnode.(src) and nd = vnode.(dst) in
    if ns < 0 || nd < 0 then -1 (* leaf/spine endpoint: Dijkstra fallback *)
    else if ns = nd then via_switch buf node_sw.(ns) src dst
    else begin
      let srail = vrail.(src) and drail = vrail.(dst) in
      if srail >= 0 && drail >= 0 && srail <> drail then -1
      else begin
        let r =
          if srail >= 0 then srail else if drail >= 0 then drail else (ns + nd) mod rails
        in
        let lf_s = ns / arity and lf_d = nd / arity in
        let i = to_nic buf 0 ~sw:node_sw.(ns) ~nic:nic_vid.(ns).(r) src in
        let i = put buf i leaf_vid.(r).(lf_s) in
        let i =
          if lf_s = lf_d then i
          else put buf (put buf i spine_vid.(r).((lf_s + lf_d) mod spines)) leaf_vid.(r).(lf_d)
        in
        from_nic buf i ~sw:node_sw.(nd) ~nic:nic_vid.(nd).(r) dst
      end
    end
  in
  (* Tier-derived latency bounds: exact by the symmetry of the
     construction (every GPU pair is same-node, intra-leaf or cross-leaf). *)
  let two_pcie = Time.add p.pcie_latency p.pcie_latency in
  let two_ib = Time.add p.ib_latency p.ib_latency in
  let min_gpu =
    if gpus_per_node >= 2 then Some p.nvlink_latency
    else if nodes >= 2 then
      Some (Time.add two_pcie (if arity >= 2 then p.ib_latency else two_ib))
    else None
  in
  let max_gpu =
    if leaves >= 2 then Some (Time.add two_pcie two_ib)
    else if nodes >= 2 then Some (Time.add two_pcie p.ib_latency)
    else if gpus_per_node >= 2 then Some p.nvlink_latency
    else None
  in
  finish ~closed:{ spath; min_gpu; max_gpu } b ~profile:p
    ~name:(Printf.sprintf "fattree_%s_%dn_a%d_r%d" p.pname nodes arity rails)
    ~nodes ~gpu_vid ~host_vid

(* ---------------------------------------------------------------- *)
(* Dragonfly                                                         *)
(* ---------------------------------------------------------------- *)

(* Dragonfly of HGX nodes: groups of [a] routers, [p] nodes per router,
   [h] global links per router, groups connected all-to-all by an absolute
   arrangement (peer group [d] of group [s] lands on router
   [offset(d)/h]). Local links cost one ib_latency; global optical links
   cost three — which makes the minimal local-global-local route strictly
   cheaper than any multi-global detour, so closed-form routing coincides
   with shortest-path routing. *)
let dragonfly ~profile:pr ~a ~p ~h ~nodes ~gpus_per_node =
  if a <= 0 then invalid_arg "Topology.dragonfly: a (routers per group) must be positive";
  if p <= 0 then invalid_arg "Topology.dragonfly: p (nodes per router) must be positive";
  if h <= 0 then invalid_arg "Topology.dragonfly: h (global links per router) must be positive";
  if nodes <= 0 then invalid_arg "Topology.dragonfly: need at least one node";
  check_gpus "dragonfly" gpus_per_node;
  let per_group = a * p in
  let groups = (nodes + per_group - 1) / per_group in
  if groups > 1 && groups - 1 > a * h then
    invalid_arg
      (Printf.sprintf
         "Topology.dragonfly: %d groups exceed the global-link budget a*h+1 = %d (raise a or h)"
         groups
         ((a * h) + 1));
  let b = builder () in
  let nic_vid = Array.make nodes (-1) in
  let global_lat = Time.ns (3 * Time.to_ns pr.ib_latency) in
  let router_vid = Array.make_matrix groups a (-1) in
  for g = 0 to groups - 1 do
    for r = 0 to a - 1 do
      router_vid.(g).(r) <- add_vertex b R_router (pos g r)
    done;
    for i = 0 to a - 1 do
      for j = 0 to a - 1 do
        if i <> j then
          add_link b ~src:router_vid.(g).(i) ~dst:router_vid.(g).(j) ~kind:Infiniband
            ~latency:pr.ib_latency ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[]
      done
    done
  done;
  (* Absolute arrangement: the router owning the global link from group [s]
     toward peer group [d]. *)
  let owner s d = (if d > s then d - 1 else d) / h in
  for s = 0 to groups - 1 do
    for d = 0 to groups - 1 do
      if s <> d then
        add_link b ~src:router_vid.(s).(owner s d) ~dst:router_vid.(d).(owner d s)
          ~kind:Infiniband ~latency:global_lat ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[]
    done
  done;
  let gpu_vid, node_sw, host_vid =
    add_nodes b ~profile:pr ~nodes ~gpus_per_node (fun node sw ->
        nic_vid.(node) <-
          add_nic b ~profile:pr R_nic ~at:(pos node 0) ~sw
            ~uplink:router_vid.(node / per_group).(node mod per_group / p))
  in
  let vnode = vertex_nodes b ~gpus_per_node ~gpu_vid ~node_sw ~host_vid [ nic_vid ] in
  let vgroup = Array.make b.nv (-1) in
  let vrouter = Array.make b.nv (-1) in
  Array.iteri
    (fun g per ->
      Array.iteri
        (fun r v ->
          vgroup.(v) <- g;
          vrouter.(v) <- r)
        per)
    router_vid;
  (* Position of a vertex in the router fabric: its group and router, and
     the chain of vertices between it and the router. Only routers and
     node-local vertices have one. *)
  let placed v = vgroup.(v) >= 0 || vnode.(v) >= 0 in
  let group v = if vgroup.(v) >= 0 then vgroup.(v) else vnode.(v) / per_group in
  let router v = if vgroup.(v) >= 0 then vrouter.(v) else vnode.(v) mod per_group / p in
  let spath buf src dst =
    let nsd = vnode.(src) and ndd = vnode.(dst) in
    if nsd >= 0 && nsd = ndd then via_switch buf node_sw.(nsd) src dst
    else if not (placed src && placed dst) then -1
    else begin
      let gs = group src and rs = router src and gd = group dst and rd = router dst in
      let i = if nsd < 0 then 0 else to_nic buf 0 ~sw:node_sw.(nsd) ~nic:nic_vid.(nsd) src in
      let i = put buf i router_vid.(gs).(rs) in
      let i =
        if gs = gd then if rs = rd then i else put buf i router_vid.(gd).(rd)
        else begin
          let os = owner gs gd and od = owner gd gs in
          let i = if os <> rs then put buf i router_vid.(gs).(os) else i in
          let i = put buf i router_vid.(gd).(od) in
          if od <> rd then put buf i router_vid.(gd).(rd) else i
        end
      in
      if ndd < 0 then i else from_nic buf i ~sw:node_sw.(ndd) ~nic:nic_vid.(ndd) dst
    end
  in
  let two_pcie = Time.add pr.pcie_latency pr.pcie_latency in
  let ibx n = Time.ns (n * Time.to_ns pr.ib_latency) in
  let min_gpu =
    if gpus_per_node >= 2 then Some pr.nvlink_latency
    else if nodes >= 2 && p >= 2 then Some (Time.add two_pcie pr.ib_latency)
    else if nodes >= 2 && a >= 2 then Some (Time.add two_pcie (ibx 2))
    else if nodes >= 2 then Some (Time.add two_pcie (ibx 4))
    else None
  in
  let max_gpu =
    if groups >= 2 then begin
      (* Worst cross-group pair: the optical hop plus one local hop on each
         side whose group populates a router other than the link's owner
         (a partly filled last group may not). *)
      let off g r =
        let routers = (min per_group (nodes - (g * per_group)) + p - 1) / p in
        if routers >= 2 || r <> 0 then 1 else 0
      in
      let worst = ref 0 in
      for s = 0 to groups - 1 do
        for d = 0 to groups - 1 do
          if s <> d then worst := max !worst (off s (owner s d) + off d (owner d s))
        done
      done;
      Some (Time.add two_pcie (ibx (4 + !worst)))
    end
    else if nodes > p then Some (Time.add two_pcie (ibx 2))
    else if nodes >= 2 then Some (Time.add two_pcie pr.ib_latency)
    else if gpus_per_node >= 2 then Some pr.nvlink_latency
    else None
  in
  finish ~closed:{ spath; min_gpu; max_gpu } b ~profile:pr
    ~name:(Printf.sprintf "dragonfly_%s_%dg_a%dp%dh%d" pr.pname groups a p h)
    ~nodes ~gpu_vid ~host_vid

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)
(* ------------------------------------------------------------------ *)

type spec =
  | Hgx
  | Ring
  | Pcie_only
  | Dgx of { nodes : int }
  | Fat_tree of { arity : int; rails : int; gpus_per_node : int }
  | Dragonfly of { a : int; p : int; h : int; gpus_per_node : int }

let pos_int what s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad %s %S in topology spec" what s)

(* The positive integer fields of a fat-tree or dragonfly spec: [given]
   read in order against [fields] (what, default); fields left out take
   their defaults. *)
let spec_fields fields given =
  let rec go fields given =
    match (fields, given) with
    | [], _ -> Ok []
    | (_, default) :: fs, [] -> Result.map (List.cons default) (go fs [])
    | (what, _) :: fs, v :: vs ->
      Result.bind (pos_int what v) (fun n -> Result.map (List.cons n) (go fs vs))
  in
  Result.map Array.of_list (go fields given)

let spec_of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ ("hgx" | "nvswitch") ] -> Ok Hgx
  | [ "ring" ] -> Ok Ring
  | [ ("pcie" | "pcie_only" | "pcie-only") ] -> Ok Pcie_only
  | [ "dgx" ] -> Ok (Dgx { nodes = 2 })
  | [ "dgx"; n ] -> (
    match int_of_string_opt n with
    | Some nodes when nodes > 0 -> Ok (Dgx { nodes })
    | _ -> Error (Printf.sprintf "bad node count %S in topology spec" n))
  | ("fat-tree" | "fat_tree" | "fattree") :: rest ->
    if List.length rest > 3 then Error (Printf.sprintf "too many fields in fat-tree spec %S" s)
    else
      let* f = spec_fields [ ("arity", 4); ("rail count", 1); ("gpus-per-node", 8) ] rest in
      Ok (Fat_tree { arity = f.(0); rails = f.(1); gpus_per_node = f.(2) })
  | "dragonfly" :: rest ->
    if not (List.mem (List.length rest) [ 0; 3; 4 ]) then
      Error (Printf.sprintf "dragonfly spec %S needs A:P:H or A:P:H:GPN" s)
    else
      let* f =
        spec_fields
          [
            ("a (routers per group)", 4);
            ("p (nodes per router)", 2);
            ("h (global links per router)", 2);
            ("gpus-per-node", 8);
          ]
          rest
      in
      Ok (Dragonfly { a = f.(0); p = f.(1); h = f.(2); gpus_per_node = f.(3) })
  | _ ->
    Error
      (Printf.sprintf
         "unknown topology %S (expected hgx, ring, pcie, dgx[:NODES], \
          fat-tree[:ARITY[:RAILS[:GPN]]] or dragonfly[:A:P:H[:GPN]])"
         s)

let spec_to_string = function
  | Hgx -> "hgx"
  | Ring -> "ring"
  | Pcie_only -> "pcie"
  | Dgx { nodes } -> Printf.sprintf "dgx:%d" nodes
  | Fat_tree { arity; rails; gpus_per_node } ->
    Printf.sprintf "fat-tree:%d:%d:%d" arity rails gpus_per_node
  | Dragonfly { a; p; h; gpus_per_node } ->
    Printf.sprintf "dragonfly:%d:%d:%d:%d" a p h gpus_per_node

let validate spec ~gpus =
  if gpus <= 0 then Error (Printf.sprintf "need at least one GPU, got %d" gpus)
  else
    match spec with
    | Hgx | Ring | Pcie_only -> Ok ()
    | Dgx { nodes } ->
      if gpus mod nodes <> 0 then
        Error
          (Printf.sprintf "%d GPUs do not split evenly across %d nodes (try --gpus %d)" gpus
             nodes
             (gpus + nodes - (gpus mod nodes)))
      else Ok ()
    | (Fat_tree { gpus_per_node; _ } | Dragonfly { gpus_per_node; _ })
      when gpus mod gpus_per_node <> 0 ->
      Error
        (Printf.sprintf "%d GPUs are not a multiple of %d GPUs per node (try --gpus %d)" gpus
           gpus_per_node
           (gpus + gpus_per_node - (gpus mod gpus_per_node)))
    | Fat_tree _ -> Ok ()
    | Dragonfly { a; p; h; gpus_per_node } ->
      let nodes = gpus / gpus_per_node in
      let groups = (nodes + (a * p) - 1) / (a * p) in
      if groups > 1 && groups - 1 > a * h then
        Error
          (Printf.sprintf
             "%d nodes make %d dragonfly groups, exceeding the global-link budget a*h+1 = %d \
              (raise a or h)"
             nodes groups
             ((a * h) + 1))
      else Ok ()

let graph_of_spec spec ~profile ~gpus =
  match spec with
  | Hgx -> hgx ~profile ~gpus
  | Ring -> ring ~profile ~gpus
  | Pcie_only -> pcie_only ~profile ~gpus
  | Dgx { nodes } -> dgx_cluster ~profile ~nodes ~gpus_per_node:(gpus / nodes)
  | Fat_tree { arity; rails; gpus_per_node } ->
    fat_tree ~profile ~arity ~rails ~nodes:(gpus / gpus_per_node) ~gpus_per_node
  | Dragonfly { a; p; h; gpus_per_node } ->
    dragonfly ~profile ~a ~p ~h ~nodes:(gpus / gpus_per_node) ~gpus_per_node

let checked spec ~gpus =
  match validate spec ~gpus with
  | Error msg -> invalid_arg ("Topology.instantiate: " ^ msg)
  | Ok () -> ()

(* A healthy run over [g]: no row cached, nothing dead. *)
let run_over g =
  {
    g;
    rows = [||];
    fifo = Queue.create ();
    dedup = Bytes.make (Array.length g.p_owner) '\000';
    walk = Array.make closed_path_max 0;
    dead_vs = Bytes.make (num_v g) '\000';
    dead_ls = Bytes.make (Array.length g.l_src) '\000';
    degraded = false;
    route_epoch = 0;
  }

let build spec ~profile ~gpus =
  checked spec ~gpus;
  run_over (graph_of_spec spec ~profile ~gpus)

(* The graphs this domain has built, most recently used first, at most
   [shared_graphs] of them. Each domain keeps its own, so the table takes
   no lock and hands a graph only to runs on the domain that built it. *)
let shared_graphs = 16

let graph_table : ((spec * profile * int) * graph) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let shared_graph spec ~profile ~gpus =
  let table = Domain.DLS.get graph_table in
  let key = (spec, profile, gpus) in
  match !table with
  | (k, g) :: _ when k = key -> g
  | entries ->
    let g =
      match List.assoc_opt key entries with
      | Some g -> g
      | None -> graph_of_spec spec ~profile ~gpus
    in
    table := (key, g) :: List.filteri (fun i (k, _) -> i < shared_graphs - 1 && k <> key) entries;
    g

let instantiate spec ~profile ~gpus =
  checked spec ~gpus;
  run_over (shared_graph spec ~profile ~gpus)

(* ------------------------------------------------------------------ *)
(* Route resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* The dead-component restriction for route computation: [None] while the
   machine is healthy (keeping the fault-free search byte-identical to the
   pre-failure code path), the surviving-subgraph predicate once degraded. *)
let dead_of t = if t.degraded then Some (t.dead_vs, t.dead_ls) else None

(* Fetch (or compute) the cached shortest-path row for [src], evicting the
   oldest row first when the cache is full. *)
let row_for t src =
  if Array.length t.rows = 0 then t.rows <- Array.make (num_v t.g) None;
  match t.rows.(src) with
  | Some r -> r
  | None ->
    let r = dijkstra_row ?dead:(dead_of t) ~adj:t.g.adj ~dst:t.g.l_dst ~lat:t.g.l_lat src in
    if Queue.length t.fifo >= route_cache_rows then t.rows.(Queue.pop t.fifo) <- None;
    t.rows.(src) <- Some r;
    Queue.push src t.fifo;
    r

let missing_edge t u v =
  invalid_arg
    (Printf.sprintf "Topology.%s: structural route uses a missing edge %s -> %s" t.g.tname
       (vertex_name t.g u) (vertex_name t.g v))

(* The closed path's vertices, then each hop's lowest-id link written in
   place over the vertex it leaves. *)
let closed_walk t (c : closed) ~src ~dst =
  let buf = t.walk in
  let nv = c.spath buf src dst in
  let hops = ref (if nv < 0 then -1 else nv - 1) and i = ref 0 in
  while !hops >= 0 && !i < nv do
    let u = buf.(!i) in
    if is_set t.dead_vs u then hops := -1
    else if !i < nv - 1 then begin
      let l = edge t.g u buf.(!i + 1) in
      if l < 0 then missing_edge t u buf.(!i + 1);
      if is_set t.dead_ls l then hops := -1 else buf.(!i) <- l
    end;
    incr i
  done;
  !hops

(* The row's [pred] links from [dst] back to the source, written from the
   end: the chain is [hops.(dst)] links long. *)
let row_walk t (r : row) dst =
  if r.dist.(dst) = max_int then -1
  else begin
    let n = r.hops.(dst) in
    if Array.length t.walk < n then t.walk <- Array.make (max n (2 * Array.length t.walk)) 0;
    let v = ref dst in
    for i = n - 1 downto 0 do
      let l = r.pred.(!v) in
      t.walk.(i) <- l;
      v := t.g.l_src.(l)
    done;
    n
  end

(* The walker. It writes a route's link ids into [t.walk] and returns
   how many, or -1 when the pair is unroutable: the closed path when the
   machine has one for the pair and it survives the dead set, the cached
   Dijkstra row otherwise. A closed path crossing a dead vertex or link
   goes to the rows, which re-route over the surviving graph and so
   exploit the fabric's remaining path diversity. *)
let walk t ~src ~dst =
  if src = dst then 0
  else
    let n = match t.g.closed with Some c -> closed_walk t c ~src ~dst | None -> -1 in
    if n >= 0 then n else row_walk t (row_for t src) dst

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let name t = t.g.tname
let num_gpus t = t.g.gpus
let num_nodes t = t.g.nodes
let num_vertices t = num_v t.g
let num_ports t = Array.length t.g.p_owner
let vertices t = List.init (num_v t.g) (vertex_at t.g)
let links t = List.init (Array.length t.g.l_src) (link_at t.g)
let ports t = List.init (num_ports t) (port_at t.g)
let routing_kind t = if Option.is_some t.g.closed then "structural" else "tables"
let route_rows_cached t = Queue.length t.fifo

(* ------------------------------------------------------------------ *)
(* Fail-stop degradation                                               *)
(* ------------------------------------------------------------------ *)

(* Drop every cached shortest-path row and bump the epoch. Rows cached
   before a failure were computed on the then-healthy graph; recomputation
   under [dead_of t] re-resolves around the corpses. The epoch lets
   downstream per-pair memos (the interconnect) notice staleness without a
   callback protocol. *)
let flush_routes t =
  Queue.iter (fun s -> t.rows.(s) <- None) t.fifo;
  Queue.clear t.fifo;
  t.degraded <- true;
  t.route_epoch <- t.route_epoch + 1

let vertex_named t name =
  let n = String.lowercase_ascii (String.trim name) in
  let rec find v =
    if v = num_v t.g then None
    else if String.equal (vertex_name t.g v) n then Some v
    else find (v + 1)
  in
  find 0

let require_vertex t name op =
  match vertex_named t name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Topology.%s: no vertex named %S in %s (see pp_links for names)" op name
         t.g.tname)

(* Mark every live link [hits] selects dead; whether any was. *)
let kill_links t hits =
  let hit = ref false in
  for l = 0 to Array.length t.g.l_src - 1 do
    if hits t.g.l_src.(l) t.g.l_dst.(l) && not (is_set t.dead_ls l) then begin
      Bytes.set t.dead_ls l '\001';
      hit := true
    end
  done;
  !hit

let fail_link t ~src ~dst =
  let u = require_vertex t src "fail_link" and v = require_vertex t dst "fail_link" in
  if kill_links t (fun a b -> (a = u && b = v) || (a = v && b = u)) then flush_routes t

let fail_switch t ~name =
  let v = require_vertex t name "fail_switch" in
  let fresh = not (is_set t.dead_vs v) in
  Bytes.set t.dead_vs v '\001';
  if kill_links t (fun a b -> a = v || b = v) || fresh then flush_routes t

let degraded t = t.degraded
let route_epoch t = t.route_epoch

let dead_vertices t =
  List.filter_map
    (fun v -> if is_set t.dead_vs v then Some (vertex_name t.g v) else None)
    (List.init (num_v t.g) Fun.id)

let dead_links t =
  List.filter (is_set t.dead_ls) (List.init (Array.length t.g.l_src) Fun.id)

let check_gpu t g op =
  if g < 0 || g >= t.g.gpus then invalid_arg (Printf.sprintf "Topology.%s: no such GPU %d" op g)

let node_of_gpu t g =
  check_gpu t g "node_of_gpu";
  g / gpus_per_node t.g

let gpu_vertex t g =
  check_gpu t g "gpu_vertex";
  t.g.gpu_vid.(g)

let host_vertex t ~node =
  if node < 0 || node >= t.g.nodes then
    invalid_arg (Printf.sprintf "Topology.host_vertex: no such node %d" node);
  t.g.host_vid.(node)

(* ------------------------------------------------------------------ *)
(* Route queries                                                       *)
(* ------------------------------------------------------------------ *)

let check_vid t v op =
  if v < 0 || v >= num_v t.g then invalid_arg (Printf.sprintf "Topology.%s: no such vertex %d" op v)

let no_route t ~src ~dst op =
  let msg =
    Printf.sprintf "Topology.%s: no route from %s to %s" op (vertex_name t.g src)
      (vertex_name t.g dst)
  in
  if not t.degraded then invalid_arg msg
  else begin
    (* On a healthy machine an unroutable public pair is a caller bug; on a
       degraded one it is a diagnosed network partition. *)
    let count set =
      let c = ref 0 in
      Bytes.iter (fun d -> if d <> '\000' then incr c) set;
      !c
    in
    raise
      (Partitioned
         (Printf.sprintf "%s: network partitioned by fail-stop events (%d dead link%s, %d dead vertex%s%s)"
            msg (count t.dead_ls)
            (if count t.dead_ls = 1 then "" else "s")
            (count t.dead_vs)
            (if count t.dead_vs = 1 then "" else "es")
            (match dead_vertices t with [] -> "" | ns -> ": " ^ String.concat ", " ns)))
  end

(* Every route query resolves through here: both vertex ids checked, then
   the route walked into [t.walk]; its link count, -1 when the pair is
   unroutable. [op] names the query in its errors. *)
let walk_checked t ~src ~dst op =
  check_vid t src op;
  check_vid t dst op;
  walk t ~src ~dst

let routed t ~src ~dst op =
  let n = walk_checked t ~src ~dst op in
  if n < 0 then no_route t ~src ~dst op else n

let reachable t ~src ~dst = walk_checked t ~src ~dst "reachable" >= 0

let route t ~src ~dst =
  let n = routed t ~src ~dst "route" in
  List.init n (fun k -> link_at t.g t.walk.(k))

type route_summary = { r_latency : Time.t; r_ns_per_byte : float; r_ports : int array }

(* The walked route's [n] links read in one pass: the summed latency
   (equal to the Dijkstra row's [dist] when the row routes the pair), the
   bottleneck inverse bandwidth (the vertex's local rate on an empty
   route) and the number of distinct ports, each marked in the [dedup]
   bitset; then a second pass over the ports writes each marked one at
   its first occurrence and clears it, so they come out in travel order
   and the bitset is clear again. *)
let summarize t n =
  let g = t.g and links = t.walk and seen = t.dedup in
  let { off; ids } = g.l_ports in
  let lat = ref Time.zero and nsb = ref (if n = 0 then g.local_nsb else 0.0) and np = ref 0 in
  for k = 0 to n - 1 do
    let l = links.(k) in
    lat := Time.add !lat g.l_lat.(l);
    if g.l_nsb.(l) > !nsb then nsb := g.l_nsb.(l);
    for i = off.(l) to off.(l + 1) - 1 do
      if not (is_set seen ids.(i)) then begin
        Bytes.set seen ids.(i) '\001';
        incr np
      end
    done
  done;
  let ports = Array.make !np 0 and j = ref 0 in
  for k = 0 to n - 1 do
    let l = links.(k) in
    for i = off.(l) to off.(l + 1) - 1 do
      if is_set seen ids.(i) then begin
        Bytes.set seen ids.(i) '\000';
        ports.(!j) <- ids.(i);
        incr j
      end
    done
  done;
  { r_latency = !lat; r_ns_per_byte = !nsb; r_ports = ports }

(* One resolution, read three ways. Its errors name [route_ports]: a
   pair it cannot route is reported as the ports a transfer could not
   book. *)
let route_summary t ~src ~dst = summarize t (routed t ~src ~dst "route_ports")
let route_latency t ~src ~dst = (summarize t (routed t ~src ~dst "route_latency")).r_latency

let route_ns_per_byte t ~src ~dst =
  (summarize t (routed t ~src ~dst "route_ns_per_byte")).r_ns_per_byte

let route_ports t ~src ~dst = Array.to_list (summarize t (routed t ~src ~dst "route_ports")).r_ports

(* The search runs over positions in ascending link id, so its link-id
   tie-break reads the same, and maps each [pred] back to its link's id. *)
let shortest_row ~nv links ~src =
  if src < 0 || src >= nv then invalid_arg "Topology.shortest_row: no such source";
  let ls = Array.of_list (List.sort (fun a c -> compare a.lid c.lid) links) in
  let adj = csr ~rows:nv ~count:(Array.length ls) (fun i -> ls.(i).lsrc) in
  let r =
    dijkstra_row ~adj ~dst:(Array.map (fun l -> l.ldst) ls)
      ~lat:(Array.map (fun l -> l.llatency) ls)
      src
  in
  (r.dist, r.hops, Array.map (fun i -> if i < 0 then -1 else ls.(i).lid) r.pred)

let min_gpu_pair_latency t = fst (Lazy.force t.g.gpu_bounds)
let max_gpu_pair_latency t = snd (Lazy.force t.g.gpu_bounds)

let string_of_link_kind = function
  | Nvlink -> "nvlink"
  | Pcie -> "pcie"
  | Infiniband -> "infiniband"

let string_of_vertex_kind = function
  | Gpu _ -> "gpu"
  | Host _ -> "host"
  | Nic _ -> "nic"
  | Switch _ -> "switch"

let pp fmt t =
  let g = t.g in
  Format.fprintf fmt "%s: %d GPU%s across %d node%s (%d vertices, %d links, %d ports)" g.tname
    g.gpus
    (if g.gpus = 1 then "" else "s")
    g.nodes
    (if g.nodes = 1 then "" else "s")
    (num_v g) (Array.length g.l_src) (num_ports t)

let pp_links fmt t =
  let g = t.g in
  for l = 0 to Array.length g.l_src - 1 do
    Format.fprintf fmt "  %-28s %-10s %8s %7.0f GB/s  [%s]@."
      (Printf.sprintf "%s -> %s" (vertex_name g g.l_src.(l)) (vertex_name g g.l_dst.(l)))
      (string_of_link_kind g.l_kind.(l))
      (Time.to_string g.l_lat.(l))
      (1.0 /. g.l_nsb.(l))
      (String.concat ", " (List.map (port_name g) (link_ports g l)))
  done
