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
(* Routing state                                                       *)
(* ------------------------------------------------------------------ *)

(* One single-source shortest-path solution: [dist]/[hops] in integer ns and
   hop count, [pred] the incoming link id of the shortest route (same
   deterministic tie-breaks as the original eager all-pairs build: shortest
   latency, then fewest hops, then lowest incoming link id). *)
type row = { rsrc : int; dist : int array; hops : int array; pred : int array }

(* A constructor's closed form: an O(path-length) vertex-path function
   derived from the construction (the unique tree path for a dgx cluster,
   up/down for fat-tree, minimal local-global-local for dragonfly), so
   nothing quadratic is ever materialized, plus GPU-pair latency bounds
   derived from tier latencies (profile numbers and shape counts) rather
   than from any route fold. Pairs the path function declines (fat-tree
   core-switch endpoints, cross-rail NIC pairs) take the Dijkstra rows. *)
type closed = {
  spath : int -> int -> int list option; (* full vertex sequence, src..dst *)
  min_gpu : Time.t option;
  max_gpu : Time.t option;
}

exception Partitioned of string

type t = {
  tname : string;
  nodes : int;
  gpus : int;
  vs : vertex array;
  ps : port array;
  ls : link array;
  adj : link list array; (* out-adjacency in ascending link id *)
  gpu_vid : int array;
  host_vid : int array;
  closed : closed option;
  edge : (int, int) Hashtbl.t; (* (u * nv + v) -> lowest link id; empty without [closed] *)
  (* Bounded per-source route cache. Rows are recomputed on demand after an
     eviction; Dijkstra here is deterministic, so a recomputed row is
     identical to the evicted one and cache size never changes any route. *)
  rows : row option array; (* indexed by source vid *)
  fifo : int Queue.t; (* cached sources, oldest first *)
  dedup : Bytes.t; (* reusable port bitset for route_ports *)
  dead_vs : bool array; (* fail-stopped vertices *)
  dead_ls : bool array; (* fail-stopped links *)
  mutable degraded : bool; (* any fail_link/fail_switch applied *)
  mutable route_epoch : int; (* bumped on every route invalidation *)
}

let route_cache_rows = 64

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable bvs : vertex list;
  mutable bps : port list;
  mutable bls : link list;
  mutable nv : int;
  mutable np : int;
  mutable nl : int;
}

let builder () = { bvs = []; bps = []; bls = []; nv = 0; np = 0; nl = 0 }

let add_vertex b ~kind ~name ~local_ns_per_byte =
  let vid = b.nv in
  b.nv <- vid + 1;
  b.bvs <- { vid; kind; vname = name; local_ns_per_byte } :: b.bvs;
  vid

let add_port b ~name =
  let pid = b.np in
  b.np <- pid + 1;
  b.bps <- { pid; pname = name } :: b.bps;
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
  | Some (dvs, dls) -> ((fun (v : int) -> dvs.(v)), fun (l : int) -> dls.(l))

let row_init nv src =
  let dist = Array.make nv max_int and hops = Array.make nv max_int in
  dist.(src) <- 0;
  hops.(src) <- 0;
  { rsrc = src; dist; hops; pred = Array.make nv (-1) (* incoming link id *) }

let settle_order (d1, h1, v1) (d2, h2, v2) =
  if d1 <> d2 then Int.compare d1 d2 else if h1 <> h2 then Int.compare h1 h2 else Int.compare v1 v2

let dijkstra_row ?dead ~nv ~(adj : link list array) src =
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
      List.iter
        (fun l ->
          let v = l.ldst in
          if (not visited.(v)) && (not (dead_l l.lid)) && not (dead_v v) then begin
            let nd = du + Time.to_ns l.llatency and nh = hu + 1 in
            if nd < dist.(v) || (nd = dist.(v) && nh < hops.(v)) then begin
              dist.(v) <- nd;
              hops.(v) <- nh;
              pred.(v) <- l.lid;
              Cpufree_engine.Heap.push frontier (nd, nh, v)
            end
            else if nd = dist.(v) && nh = hops.(v) && l.lid < pred.(v) then pred.(v) <- l.lid
          end)
        adj.(u);
      loop ()
  in
  loop ();
  r

(* Out-adjacency in ascending link id: the relaxation order the link-id
   tie-break relies on. *)
let adjacency nv (ls : link array) =
  let adj = Array.make nv [] in
  Array.iter (fun l -> adj.(l.lsrc) <- l :: adj.(l.lsrc)) ls;
  Array.map (List.sort (fun a c -> compare a.lid c.lid)) adj

(* O(V + E) coverage check from/to one pivot, replacing the old all-pairs
   route validation: if the pivot reaches every public endpoint and every
   public endpoint reaches the pivot, then by transitivity every public
   pair is mutually routable. *)
let bfs_cover ~nv step start =
  let seen = Array.make nv false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    step u (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
  done;
  seen

let build ?closed b ~name ~nodes ~gpu_vid ~host_vid =
  let vs = Array.make b.nv (List.hd b.bvs) in
  List.iter (fun v -> vs.(v.vid) <- v) b.bvs;
  let ps = Array.of_list (List.sort (fun a c -> compare a.pid c.pid) b.bps) in
  let ls = Array.of_list (List.sort (fun a c -> compare a.lid c.lid) b.bls) in
  let nv = b.nv in
  let adj = adjacency nv ls in
  let radj = Array.make nv [] in
  Array.iter (fun l -> radj.(l.ldst) <- l.lsrc :: radj.(l.ldst)) ls;
  (* Every public endpoint must be able to reach every other one. *)
  let publics =
    Array.to_list gpu_vid @ Array.to_list host_vid
    @ List.filter_map
        (fun v -> match v.kind with Nic _ -> Some v.vid | _ -> None)
        (Array.to_list vs)
  in
  (match publics with
  | [] -> ()
  | p0 :: _ ->
    let fwd = bfs_cover ~nv (fun u k -> List.iter (fun l -> k l.ldst) adj.(u)) p0 in
    let bwd = bfs_cover ~nv (fun u k -> List.iter k radj.(u)) p0 in
    List.iter
      (fun v ->
        if not fwd.(v) then
          invalid_arg
            (Printf.sprintf "Topology.%s: %s cannot reach %s" name vs.(p0).vname vs.(v).vname);
        if not bwd.(v) then
          invalid_arg
            (Printf.sprintf "Topology.%s: %s cannot reach %s" name vs.(v).vname vs.(p0).vname))
      publics);
  (* [ls] ascends by id, so the first link seen per hop is its lowest. *)
  let edge = Hashtbl.create (if Option.is_none closed then 1 else Array.length ls) in
  if Option.is_some closed then
    Array.iter
      (fun l ->
        let k = (l.lsrc * nv) + l.ldst in
        if not (Hashtbl.mem edge k) then Hashtbl.add edge k l.lid)
      ls;
  {
    tname = name;
    nodes;
    gpus = Array.length gpu_vid;
    vs;
    ps;
    ls;
    adj;
    gpu_vid;
    host_vid;
    closed;
    edge;
    rows = Array.make nv None;
    fifo = Queue.create ();
    dedup = Bytes.make (max 1 b.np) '\000';
    dead_vs = Array.make (max 1 b.nv) false;
    dead_ls = Array.make (max 1 b.nl) false;
    degraded = false;
    route_epoch = 0;
  }

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

let nsb gbs = 1.0 /. gbs

(* Closed-form path pieces shared by the cluster constructors: the
   same-node route through node switch [sw], and the chain from a node
   vertex up to (and including) the NIC [nic] it leaves the node by. *)
let via_switch sw src dst =
  (if src = sw then [ src ] else [ src; sw ]) @ if dst = sw then [] else [ dst ]

let to_nic ~sw ~nic v = if v = nic then [ v ] else if v = sw then [ v; nic ] else [ v; sw; nic ]

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
    let sw =
      add_vertex b
        ~kind:(Switch { node = Some node })
        ~name:(Printf.sprintf "node%d.nvswitch" node)
        ~local_ns_per_byte:(nsb p.hbm_gbs)
    in
    node_sw.(node) <- sw;
    for d = 0 to gpus_per_node - 1 do
      let g = (node * gpus_per_node) + d in
      let v =
        add_vertex b ~kind:(Gpu { node; device = d }) ~name:(Printf.sprintf "gpu%d" g)
          ~local_ns_per_byte:(nsb p.hbm_gbs)
      in
      gpu_vid.(g) <- v;
      let ep = add_port b ~name:(Printf.sprintf "gpu%d.egress" g) in
      let ip = add_port b ~name:(Printf.sprintf "gpu%d.ingress" g) in
      add_hop b ~src:v ~dst:sw ~kind:Nvlink ~ns_per_byte:(nsb p.nvlink_gbs)
        ~there:(e_lat, [ ep ]) ~back:(i_lat, [ ip ])
    done;
    let host =
      add_vertex b ~kind:(Host { node })
        ~name:(if node = 0 then "host" else Printf.sprintf "node%d.host" node)
        ~local_ns_per_byte:(nsb p.hbm_gbs)
    in
    host_vid.(node) <- host;
    let hp =
      add_port b ~name:(if node = 0 then "host.pcie" else Printf.sprintf "node%d.host.pcie" node)
    in
    add_hop b ~src:host ~dst:sw ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
      ~there:(Time.sub p.pcie_latency i_lat, [ hp ])
      ~back:(Time.sub p.pcie_latency e_lat, [ hp ]);
    attach node sw
  done;
  (gpu_vid, node_sw, host_vid)

(* A NIC named [name] hanging off node switch [sw]: the NIC vertex, its tx
   then rx port, the PCIe attach pair (at PCIe latency and the NIC's line
   rate, shared with nothing: contention lives on the NIC's tx/rx ports),
   then the InfiniBand uplink pair to [uplink], booking tx up and rx
   down. *)
let add_nic b ~profile:p ~node ~name ~sw ~uplink =
  let e_lat, i_lat = halves p.nvlink_latency in
  let ib_dn, ib_up = halves p.ib_latency in
  let nic = add_vertex b ~kind:(Nic { node }) ~name ~local_ns_per_byte:(nsb p.hbm_gbs) in
  let tx = add_port b ~name:(name ^ ".tx") in
  let rx = add_port b ~name:(name ^ ".rx") in
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
  build b ~name:(Printf.sprintf "hgx_%s" profile.pname) ~nodes:1 ~gpu_vid ~host_vid

let dgx_cluster ~profile:p ~nodes ~gpus_per_node =
  if nodes <= 0 then invalid_arg "Topology.dgx_cluster: need at least one node";
  check_gpus "dgx_cluster" gpus_per_node;
  let b = builder () in
  let spine =
    add_vertex b ~kind:(Switch { node = None }) ~name:"ib.spine"
      ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let nic_vid = Array.make nodes (-1) in
  let gpu_vid, node_sw, host_vid =
    add_nodes b ~profile:p ~nodes ~gpus_per_node (fun node sw ->
        nic_vid.(node) <-
          add_nic b ~profile:p ~node ~name:(Printf.sprintf "node%d.nic" node) ~sw ~uplink:spine)
  in
  (* The cluster is a tree (spine - NIC - node switch - GPUs/host), so the
     closed path is the unique route Dijkstra would find: through the
     node switch within a node, up to the spine and down again across
     nodes. Only the spine belongs to no node. *)
  let vnode = vertex_nodes b ~gpus_per_node ~gpu_vid ~node_sw ~host_vid [ nic_vid ] in
  let up v =
    let n = vnode.(v) in
    if n < 0 then [] else to_nic ~sw:node_sw.(n) ~nic:nic_vid.(n) v
  in
  let spath src dst =
    let ns = vnode.(src) in
    if ns >= 0 && ns = vnode.(dst) then Some (via_switch node_sw.(ns) src dst)
    else Some (up src @ (spine :: List.rev (up dst)))
  in
  let remote = Time.add (Time.add p.pcie_latency p.pcie_latency) p.ib_latency in
  let min_gpu =
    if gpus_per_node >= 2 then Some p.nvlink_latency else if nodes >= 2 then Some remote else None
  in
  let max_gpu =
    if nodes >= 2 then Some remote else if gpus_per_node >= 2 then Some p.nvlink_latency else None
  in
  build ~closed:{ spath; min_gpu; max_gpu } b
    ~name:(Printf.sprintf "dgx_%s_%dx%d" p.pname nodes gpus_per_node)
    ~nodes ~gpu_vid ~host_vid

let ring ~profile:p ~gpus =
  check_gpus "ring" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  for g = 0 to gpus - 1 do
    gpu_vid.(g) <-
      add_vertex b ~kind:(Gpu { node = 0; device = g }) ~name:(Printf.sprintf "gpu%d" g)
        ~local_ns_per_byte:(nsb p.hbm_gbs);
    gpu_eport.(g) <- add_port b ~name:(Printf.sprintf "gpu%d.egress" g);
    gpu_iport.(g) <- add_port b ~name:(Printf.sprintf "gpu%d.ingress" g)
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
  let host =
    add_vertex b ~kind:(Host { node = 0 }) ~name:"host" ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let hp = add_port b ~name:"host.pcie" in
  (* Head-node attach: the host reaches the ring through GPU 0 only, so
     GPU-to-GPU routes can never shortcut through the host. *)
  add_hop b ~src:host ~dst:gpu_vid.(0) ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
    ~there:(p.pcie_latency, [ hp; gpu_iport.(0) ])
    ~back:(p.pcie_latency, [ gpu_eport.(0); hp ]);
  build b
    ~name:(Printf.sprintf "ring_%s" p.pname)
    ~nodes:1 ~gpu_vid ~host_vid:[| host |]

let pcie_only ~profile:p ~gpus =
  check_gpus "pcie_only" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1) in
  let dn, up = halves p.pcie_latency in
  let root =
    add_vertex b ~kind:(Switch { node = Some 0 }) ~name:"pcie.root"
      ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let root_port = add_port b ~name:"pcie.root" in
  for g = 0 to gpus - 1 do
    let v =
      add_vertex b ~kind:(Gpu { node = 0; device = g }) ~name:(Printf.sprintf "gpu%d" g)
        ~local_ns_per_byte:(nsb p.hbm_gbs)
    in
    gpu_vid.(g) <- v;
    let ep = add_port b ~name:(Printf.sprintf "gpu%d.egress" g) in
    let ip = add_port b ~name:(Printf.sprintf "gpu%d.ingress" g) in
    (* The shared root complex is booked once, on the upstream hop. *)
    add_hop b ~src:v ~dst:root ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
      ~there:(dn, [ ep; root_port ]) ~back:(up, [ ip ])
  done;
  let host =
    add_vertex b ~kind:(Host { node = 0 }) ~name:"host" ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let hp = add_port b ~name:"host.pcie" in
  add_hop b ~src:host ~dst:root ~kind:Pcie ~ns_per_byte:(nsb p.pcie_gbs)
    ~there:(dn, [ hp; root_port ]) ~back:(up, [ hp ]);
  build b
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
      leaf_vid.(r).(l) <-
        add_vertex b ~kind:(Switch { node = None })
          ~name:(Printf.sprintf "rail%d.leaf%d" r l)
          ~local_ns_per_byte:(nsb p.hbm_gbs)
    done;
    for s = 0 to spines - 1 do
      spine_vid.(r).(s) <-
        add_vertex b ~kind:(Switch { node = None })
          ~name:(Printf.sprintf "rail%d.spine%d" r s)
          ~local_ns_per_byte:(nsb p.hbm_gbs)
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
            add_nic b ~profile:p ~node ~name:(Printf.sprintf "node%d.nic%d" node r) ~sw
              ~uplink:leaf_vid.(r).(node / arity)
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
  let spath src dst =
    let ns = vnode.(src) and nd = vnode.(dst) in
    if ns < 0 || nd < 0 then None (* leaf/spine endpoint: Dijkstra fallback *)
    else if ns = nd then Some (via_switch node_sw.(ns) src dst)
    else begin
      let srail = vrail.(src) and drail = vrail.(dst) in
      if srail >= 0 && drail >= 0 && srail <> drail then None
      else begin
        let r =
          if srail >= 0 then srail else if drail >= 0 then drail else (ns + nd) mod rails
        in
        let lf_s = ns / arity and lf_d = nd / arity in
        let head = to_nic ~sw:node_sw.(ns) ~nic:nic_vid.(ns).(r) src in
        let tail = List.rev (to_nic ~sw:node_sw.(nd) ~nic:nic_vid.(nd).(r) dst) in
        let mid =
          if lf_s = lf_d then [ leaf_vid.(r).(lf_s) ]
          else
            [
              leaf_vid.(r).(lf_s);
              spine_vid.(r).((lf_s + lf_d) mod spines);
              leaf_vid.(r).(lf_d);
            ]
        in
        Some (head @ mid @ tail)
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
  build ~closed:{ spath; min_gpu; max_gpu } b
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
      router_vid.(g).(r) <-
        add_vertex b ~kind:(Switch { node = None })
          ~name:(Printf.sprintf "g%d.r%d" g r)
          ~local_ns_per_byte:(nsb pr.hbm_gbs)
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
          add_nic b ~profile:pr ~node ~name:(Printf.sprintf "node%d.nic" node) ~sw
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
  (* Position of a vertex in the router fabric: its (group, router) plus
     the chain of vertices from it down to (excluding) the router. *)
  let position v =
    if vgroup.(v) >= 0 then Some (vgroup.(v), vrouter.(v), [])
    else
      let n = vnode.(v) in
      if n < 0 then None
      else
        let g = n / per_group and r = n mod per_group / p in
        Some (g, r, to_nic ~sw:node_sw.(n) ~nic:nic_vid.(n) v)
  in
  let spath src dst =
    let nsd = vnode.(src) and ndd = vnode.(dst) in
    if nsd >= 0 && nsd = ndd then Some (via_switch node_sw.(nsd) src dst)
    else
      match (position src, position dst) with
      | None, _ | _, None -> None
      | Some (gs, rs, up), Some (gd, rd, down) ->
        let mid =
          if gs = gd then
            if rs = rd then [ router_vid.(gs).(rs) ]
            else [ router_vid.(gs).(rs); router_vid.(gd).(rd) ]
          else begin
            let os = owner gs gd and od = owner gd gs in
            [ router_vid.(gs).(rs) ]
            @ (if os <> rs then [ router_vid.(gs).(os) ] else [])
            @ [ router_vid.(gd).(od) ]
            @ if od <> rd then [ router_vid.(gd).(rd) ] else []
          end
        in
        Some (up @ mid @ List.rev down)
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
  build ~closed:{ spath; min_gpu; max_gpu } b
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

let instantiate spec ~profile ~gpus =
  match validate spec ~gpus with
  | Error msg -> invalid_arg ("Topology.instantiate: " ^ msg)
  | Ok () -> (
    match spec with
    | Hgx -> hgx ~profile ~gpus
    | Ring -> ring ~profile ~gpus
    | Pcie_only -> pcie_only ~profile ~gpus
    | Dgx { nodes } -> dgx_cluster ~profile ~nodes ~gpus_per_node:(gpus / nodes)
    | Fat_tree { arity; rails; gpus_per_node } ->
      fat_tree ~profile ~arity ~rails ~nodes:(gpus / gpus_per_node) ~gpus_per_node
    | Dragonfly { a; p; h; gpus_per_node } ->
      dragonfly ~profile ~a ~p ~h ~nodes:(gpus / gpus_per_node) ~gpus_per_node)

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
  match t.rows.(src) with
  | Some r -> r
  | None ->
    let r = dijkstra_row ?dead:(dead_of t) ~nv:(Array.length t.vs) ~adj:t.adj src in
    if Queue.length t.fifo >= route_cache_rows then t.rows.(Queue.pop t.fifo) <- None;
    t.rows.(src) <- Some r;
    Queue.push src t.fifo;
    r

let links_of_row t (r : row) dst =
  if r.dist.(dst) = max_int then None
  else begin
    let rec walk v acc =
      if v = r.rsrc then acc
      else
        let l = t.ls.(r.pred.(v)) in
        walk l.lsrc (l.lid :: acc)
    in
    Some (Array.of_list (walk dst []))
  end

(* The links of a closed vertex path, the lowest-id link of each hop, or
   [None] when the path crosses a dead vertex or link: a failed rail, spine
   or router sends the pair to the Dijkstra rows, which re-route over the
   surviving graph and so exploit the fabric's remaining path diversity. *)
let closed_links t vseq =
  let nv = Array.length t.vs in
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | u :: _ when t.dead_vs.(u) -> None
    | [ _ ] -> go acc []
    | u :: (v :: _ as rest) -> (
      match Hashtbl.find_opt t.edge ((u * nv) + v) with
      | Some lid -> if t.dead_ls.(lid) then None else go (lid :: acc) rest
      | None ->
        invalid_arg
          (Printf.sprintf "Topology.%s: structural route uses a missing edge %s -> %s" t.tname
             t.vs.(u).vname t.vs.(v).vname))
  in
  go [] vseq

(* The links of the shortest route, or None when unreachable: the closed
   path when the machine has one for the pair and it survives the dead
   set, the cached Dijkstra row otherwise. *)
let resolve_links t ~src ~dst =
  if src = dst then Some [||]
  else
    let closed_path = match t.closed with Some c -> c.spath src dst | None -> None in
    match Option.bind closed_path (closed_links t) with
    | Some _ as lids -> lids
    | None -> links_of_row t (row_for t src) dst

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let name t = t.tname
let num_gpus t = t.gpus
let num_nodes t = t.nodes
let num_vertices t = Array.length t.vs
let vertices t = Array.to_list t.vs
let links t = Array.to_list t.ls
let ports t = Array.to_list t.ps
let routing_kind t = if Option.is_some t.closed then "structural" else "tables"
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
  let found = ref None in
  Array.iter (fun v -> if !found = None && String.equal v.vname n then found := Some v.vid) t.vs;
  !found

let require_vertex t name op =
  match vertex_named t name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Topology.%s: no vertex named %S in %s (see pp_links for names)" op name
         t.tname)

let fail_link t ~src ~dst =
  let u = require_vertex t src "fail_link" and v = require_vertex t dst "fail_link" in
  let hit = ref false in
  Array.iter
    (fun l ->
      if ((l.lsrc = u && l.ldst = v) || (l.lsrc = v && l.ldst = u)) && not t.dead_ls.(l.lid)
      then begin
        t.dead_ls.(l.lid) <- true;
        hit := true
      end)
    t.ls;
  if !hit then flush_routes t

let fail_switch t ~name =
  let v = require_vertex t name "fail_switch" in
  let hit = ref (not t.dead_vs.(v)) in
  t.dead_vs.(v) <- true;
  Array.iter
    (fun l ->
      if (l.lsrc = v || l.ldst = v) && not t.dead_ls.(l.lid) then begin
        t.dead_ls.(l.lid) <- true;
        hit := true
      end)
    t.ls;
  if !hit then flush_routes t

let degraded t = t.degraded
let route_epoch t = t.route_epoch

let dead_vertices t =
  t.vs |> Array.to_list
  |> List.filter_map (fun v -> if t.dead_vs.(v.vid) then Some v.vname else None)

let dead_links t =
  List.filter (fun lid -> t.dead_ls.(lid)) (List.init (Array.length t.ls) Fun.id)

let check_gpu t g op =
  if g < 0 || g >= t.gpus then invalid_arg (Printf.sprintf "Topology.%s: no such GPU %d" op g)

let node_of_gpu t g =
  check_gpu t g "node_of_gpu";
  match t.vs.(t.gpu_vid.(g)).kind with Gpu { node; _ } -> node | _ -> assert false

let gpu_vertex t g =
  check_gpu t g "gpu_vertex";
  t.gpu_vid.(g)

let host_vertex t ~node =
  if node < 0 || node >= t.nodes then
    invalid_arg (Printf.sprintf "Topology.host_vertex: no such node %d" node);
  t.host_vid.(node)

(* ------------------------------------------------------------------ *)
(* Route queries                                                       *)
(* ------------------------------------------------------------------ *)

let check_vid t v op =
  if v < 0 || v >= Array.length t.vs then
    invalid_arg (Printf.sprintf "Topology.%s: no such vertex %d" op v)

let no_route t ~src ~dst op =
  let msg =
    Printf.sprintf "Topology.%s: no route from %s to %s" op t.vs.(src).vname t.vs.(dst).vname
  in
  if not t.degraded then invalid_arg msg
  else begin
    (* On a healthy machine an unroutable public pair is a caller bug; on a
       degraded one it is a diagnosed network partition. *)
    let count a = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 a in
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
   the route's links, [None] when the pair is unroutable. [op] names the
   query in its errors. *)
let resolve_checked t ~src ~dst op =
  check_vid t src op;
  check_vid t dst op;
  resolve_links t ~src ~dst

let routed t ~src ~dst op =
  match resolve_checked t ~src ~dst op with Some lids -> lids | None -> no_route t ~src ~dst op

let reachable t ~src ~dst = resolve_checked t ~src ~dst "reachable" <> None

let route t ~src ~dst =
  Array.to_list (Array.map (fun lid -> t.ls.(lid)) (routed t ~src ~dst "route"))

type route_summary = { r_latency : Time.t; r_ns_per_byte : float; r_ports : int list }

(* The three readings of a resolved route: the summed link latency (equal
   to the Dijkstra row's [dist] when the row routes the pair), the
   bottleneck inverse bandwidth (the vertex's local rate on an empty
   route), and the ports a transfer books. *)
let links_latency t lids =
  Array.fold_left (fun acc lid -> Time.add acc t.ls.(lid).llatency) Time.zero lids

let links_ns_per_byte t ~src = function
  | [||] -> t.vs.(src).local_ns_per_byte
  | lids -> Array.fold_left (fun acc lid -> Float.max acc t.ls.(lid).lns_per_byte) 0.0 lids

(* Port dedup via a reusable bitset (cleared back by walking the result, so
   the scratch cost is O(route length), not O(ports)). *)
let links_ports t lids =
  let seen = t.dedup in
  let acc = ref [] in
  Array.iter
    (fun lid ->
      List.iter
        (fun pp ->
          if Bytes.get seen pp = '\000' then begin
            Bytes.set seen pp '\001';
            acc := pp :: !acc
          end)
        t.ls.(lid).lports)
    lids;
  List.iter (fun pp -> Bytes.set seen pp '\000') !acc;
  List.rev !acc

(* One resolution, read three ways. Its errors name [route_ports]: a
   pair it cannot route is reported as the ports a transfer could not
   book. *)
let route_summary t ~src ~dst =
  let lids = routed t ~src ~dst "route_ports" in
  {
    r_latency = links_latency t lids;
    r_ns_per_byte = links_ns_per_byte t ~src lids;
    r_ports = links_ports t lids;
  }

let route_latency t ~src ~dst = links_latency t (routed t ~src ~dst "route_latency")
let route_ns_per_byte t ~src ~dst =
  links_ns_per_byte t ~src (routed t ~src ~dst "route_ns_per_byte")
let route_ports t ~src ~dst = links_ports t (routed t ~src ~dst "route_ports")

let shortest_row ~nv links ~src =
  if src < 0 || src >= nv then invalid_arg "Topology.shortest_row: no such source";
  let r = dijkstra_row ~nv ~adj:(adjacency nv (Array.of_list links)) src in
  (r.dist, r.hops, r.pred)

(* A GPU-pair latency bound: the closed form's tier-derived [bound], or
   [pick] folded over every ordered pair of distinct GPUs. *)
let gpu_pair_bound t bound pick =
  match t.closed with
  | Some c -> if t.gpus >= 2 then bound c else None
  | None ->
    let acc = ref None in
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then begin
              let l = route_latency t ~src ~dst in
              acc := Some (match !acc with Some m -> pick m l | None -> l)
            end)
          t.gpu_vid)
      t.gpu_vid;
    !acc

let min_gpu_pair_latency t = gpu_pair_bound t (fun c -> c.min_gpu) Time.min
let max_gpu_pair_latency t = gpu_pair_bound t (fun c -> c.max_gpu) Time.max

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
  Format.fprintf fmt "%s: %d GPU%s across %d node%s (%d vertices, %d links, %d ports)" t.tname
    t.gpus
    (if t.gpus = 1 then "" else "s")
    t.nodes
    (if t.nodes = 1 then "" else "s")
    (Array.length t.vs) (Array.length t.ls) (Array.length t.ps)

let pp_links fmt t =
  Array.iter
    (fun l ->
      Format.fprintf fmt "  %-28s %-10s %8s %7.0f GB/s  [%s]@."
        (Printf.sprintf "%s -> %s" t.vs.(l.lsrc).vname t.vs.(l.ldst).vname)
        (string_of_link_kind l.lkind) (Time.to_string l.llatency) (1.0 /. l.lns_per_byte)
        (String.concat ", " (List.map (fun p -> t.ps.(p).pname) l.lports)))
    t.ls
