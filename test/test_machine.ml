(* Topology graph: exact routed latencies/ports on the named machines, plus
   qcheck laws (route symmetry, triangle inequality) over random specs. *)

module M = Cpufree_machine
module T = M.Topology
module Time = Cpufree_engine.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_float = Alcotest.(check (float 0.0))

(* The machines the tests build, each over a graph of its own. *)
let a100 = Cpufree_gpu.Arch.(fabric_profile a100_hgx)
let h100 = Cpufree_gpu.Arch.(fabric_profile h100_hgx)
let hgx ~profile ~gpus = T.build T.Hgx ~profile ~gpus
let ring ~profile ~gpus = T.build T.Ring ~profile ~gpus
let pcie_only ~profile ~gpus = T.build T.Pcie_only ~profile ~gpus

let dgx_cluster ~profile ~nodes ~gpus_per_node =
  T.build (T.Dgx { nodes }) ~profile ~gpus:(nodes * gpus_per_node)

let fat_tree ~profile ~arity ~rails ~nodes ~gpus_per_node =
  T.build (T.Fat_tree { arity; rails; gpus_per_node }) ~profile ~gpus:(nodes * gpus_per_node)

let dragonfly ~profile ~a ~p ~h ~nodes ~gpus_per_node =
  T.build (T.Dragonfly { a; p; h; gpus_per_node }) ~profile ~gpus:(nodes * gpus_per_node)

let lat t ~src ~dst = Time.to_ns (T.route_latency t ~src ~dst)

let port_names t ~src ~dst =
  let ps = Array.of_list (T.ports t) in
  List.map (fun p -> ps.(p).T.pname) (T.route_ports t ~src ~dst)

(* ---------------- hgx: must reproduce the flat NVSwitch model ------------- *)

let test_hgx_gpu_pair () =
  let t = hgx ~profile:a100 ~gpus:8 in
  let src = T.gpu_vertex t 0 and dst = T.gpu_vertex t 3 in
  check_int "gpu-gpu wire latency is exactly nvlink" 1_500 (lat t ~src ~dst);
  check_float "gpu-gpu bottleneck is the nvlink rate" (1.0 /. 300.0)
    (T.route_ns_per_byte t ~src ~dst);
  Alcotest.(check (list string))
    "books exactly source egress + destination ingress"
    [ "gpu0.egress"; "gpu3.ingress" ] (port_names t ~src ~dst)

let test_hgx_host_paths () =
  let t = hgx ~profile:a100 ~gpus:4 in
  let h = T.host_vertex t ~node:0 and g = T.gpu_vertex t 2 in
  check_int "host-to-gpu is exactly pcie" 2_500 (lat t ~src:h ~dst:g);
  check_int "gpu-to-host is exactly pcie" 2_500 (lat t ~src:g ~dst:h);
  check_float "host path bottleneck is the pcie rate" (1.0 /. 25.0)
    (T.route_ns_per_byte t ~src:h ~dst:g);
  Alcotest.(check (list string))
    "host-to-gpu books host port + gpu ingress"
    [ "host.pcie"; "gpu2.ingress" ] (port_names t ~src:h ~dst:g);
  Alcotest.(check (list string))
    "gpu-to-host books gpu egress + host port"
    [ "gpu2.egress"; "host.pcie" ] (port_names t ~src:g ~dst:h)

let test_hgx_self () =
  let t = hgx ~profile:a100 ~gpus:2 in
  let g = T.gpu_vertex t 1 in
  check_int "self route has zero latency" 0 (lat t ~src:g ~dst:g);
  check_int "self route is empty" 0 (List.length (T.route t ~src:g ~dst:g));
  check_float "self route serializes at hbm rate" (1.0 /. 1555.0)
    (T.route_ns_per_byte t ~src:g ~dst:g)

let test_hgx_pair_stats () =
  let t = hgx ~profile:h100 ~gpus:8 in
  check_int "h100 min gpu pair"
    1_200
    (match T.min_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "h100 max gpu pair = min on a switch"
    1_200
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1)

(* ---------------- dgx: inter-node routes pay NIC + IB --------------------- *)

let test_dgx_internode () =
  let t = dgx_cluster ~profile:a100 ~nodes:2 ~gpus_per_node:8 in
  check_int "16 GPUs" 16 (T.num_gpus t);
  check_int "2 nodes" 2 (T.num_nodes t);
  check_int "gpu 11 lives on node 1" 1 (T.node_of_gpu t 11);
  let a = T.gpu_vertex t 1 and b = T.gpu_vertex t 9 in
  (* egress + switch-to-NIC + IB up + IB down + NIC-to-switch + ingress
     = nvlink + 2*(pcie - nvlink/2) + ib = 2*pcie + ib. *)
  check_int "inter-node gpu pair costs 2*pcie + ib" 6_300 (lat t ~src:a ~dst:b);
  check_float "inter-node bottleneck is the NIC line rate" (1.0 /. 25.0)
    (T.route_ns_per_byte t ~src:a ~dst:b);
  Alcotest.(check (list string))
    "inter-node route books both NIC directions"
    [ "gpu1.egress"; "node0.nic.tx"; "node1.nic.rx"; "gpu9.ingress" ]
    (port_names t ~src:a ~dst:b);
  let c = T.gpu_vertex t 8 in
  check_int "intra-node pair unchanged by scale-out" 1_500 (lat t ~src:b ~dst:c);
  check_int "min gpu pair is the intra-node one"
    1_500
    (match T.min_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "max gpu pair is the inter-node one"
    6_300
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1)

let test_dgx_hosts () =
  let t = dgx_cluster ~profile:a100 ~nodes:2 ~gpus_per_node:4 in
  let h0 = T.host_vertex t ~node:0 and h1 = T.host_vertex t ~node:1 in
  let g_far = T.gpu_vertex t 5 in
  check_int "local host attach still pcie" 2_500 (lat t ~src:h1 ~dst:g_far);
  check_bool "remote host reaches remote gpu" true
    (lat t ~src:h0 ~dst:g_far > 2_500);
  check_bool "host-to-host crosses the spine" true (T.reachable t ~src:h0 ~dst:h1)

(* ---------------- ring and pcie_only -------------------------------------- *)

let test_ring_multihop () =
  let t = ring ~profile:a100 ~gpus:8 in
  let a = T.gpu_vertex t 0 in
  check_int "neighbour is one hop" 1_500 (lat t ~src:a ~dst:(T.gpu_vertex t 1));
  check_int "opposite gpu is four hops" 6_000 (lat t ~src:a ~dst:(T.gpu_vertex t 4));
  Alcotest.(check (list string))
    "two-hop route books the relay's ports too"
    [ "gpu0.egress"; "gpu1.ingress"; "gpu1.egress"; "gpu2.ingress" ]
    (port_names t ~src:a ~dst:(T.gpu_vertex t 2))

let test_pcie_only () =
  let t = pcie_only ~profile:a100 ~gpus:4 in
  let a = T.gpu_vertex t 0 and b = T.gpu_vertex t 3 in
  check_int "peer traffic pays full pcie" 2_500 (lat t ~src:a ~dst:b);
  check_float "peer traffic at pcie rate" (1.0 /. 25.0) (T.route_ns_per_byte t ~src:a ~dst:b);
  Alcotest.(check (list string))
    "peer route shares the root complex"
    [ "gpu0.egress"; "pcie.root"; "gpu3.ingress" ]
    (port_names t ~src:a ~dst:b)

(* ---------------- cluster fabrics: fat tree and dragonfly ----------------- *)

let test_fat_tree_classes () =
  let t = fat_tree ~profile:a100 ~arity:2 ~rails:2 ~nodes:4 ~gpus_per_node:2 in
  check_str "routes structurally" "structural" (T.routing_kind t);
  check_int "8 GPUs" 8 (T.num_gpus t);
  let g n = T.gpu_vertex t n in
  check_int "same-node pair rides the NVSwitch" 1_500 (lat t ~src:(g 0) ~dst:(g 1));
  (* Nodes 0 and 1 share leaf 0 (arity 2); node 2 hangs off leaf 1. *)
  check_int "intra-leaf pair costs 2*pcie + ib" 6_300 (lat t ~src:(g 0) ~dst:(g 2));
  check_int "cross-leaf pair adds one more ib hop" 7_600 (lat t ~src:(g 0) ~dst:(g 4));
  check_int "min gpu pair is the same-node one" 1_500
    (match T.min_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "max gpu pair is the cross-leaf one" 7_600
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "structural routing caches no rows" 0 (T.route_rows_cached t)

let test_dragonfly_classes () =
  let t = dragonfly ~profile:a100 ~a:2 ~p:2 ~h:1 ~nodes:8 ~gpus_per_node:2 in
  check_str "routes structurally" "structural" (T.routing_kind t);
  let g n = T.gpu_vertex t n in
  check_int "same-node pair rides the NVSwitch" 1_500 (lat t ~src:(g 0) ~dst:(g 1));
  (* p = 2: nodes 0 and 1 share a router; node 2 is the same group's other
     router; node 4 opens group 1. *)
  check_int "same-router pair costs 2*pcie + ib" 6_300 (lat t ~src:(g 0) ~dst:(g 2));
  check_int "same-group pair adds a local hop" 7_600 (lat t ~src:(g 0) ~dst:(g 4));
  (* Nodes 0 and 4 sit on the routers that own the inter-group link, so the
     minimal route is local-free; nodes 2 and 6 (routers 1) detour one local
     hop on each side. *)
  check_int "cross-group pair pays the optical hop" 10_200 (lat t ~src:(g 0) ~dst:(g 8));
  check_int "cross-group pair off the owner routers adds two local hops" 12_800
    (lat t ~src:(g 4) ~dst:(g 12));
  check_int "max gpu pair is the worst cross-group one" 12_800
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "structural routing caches no rows" 0 (T.route_rows_cached t)

(* Building a 1024-GPU machine must cost O(endpoints): no all-pairs tables,
   no Dijkstra rows — the bound is a wide margin over the measured build
   (a few MB) but far below what one eager row per source would allocate. *)
let test_cluster_build_lazy () =
  let budget = 64e6 in
  let check_build name t allocated =
    check_bool (name ^ " build allocates O(endpoints)") true (allocated < budget);
    check_str (name ^ " routes structurally") "structural" (T.routing_kind t);
    check_int (name ^ " caches no rows at build") 0 (T.route_rows_cached t);
    let src = T.gpu_vertex t 0 and dst = T.gpu_vertex t 1023 in
    check_bool (name ^ " routes a cross-machine pair") true (lat t ~src ~dst > 1_500);
    check_int (name ^ " structural route caches nothing") 0 (T.route_rows_cached t)
  in
  let b0 = Gc.allocated_bytes () in
  let ft = fat_tree ~profile:a100 ~arity:4 ~rails:2 ~nodes:128 ~gpus_per_node:8 in
  let b1 = Gc.allocated_bytes () in
  let df = dragonfly ~profile:a100 ~a:4 ~p:4 ~h:2 ~nodes:128 ~gpus_per_node:8 in
  let b2 = Gc.allocated_bytes () in
  let dgx = dgx_cluster ~profile:a100 ~nodes:128 ~gpus_per_node:8 in
  let b3 = Gc.allocated_bytes () in
  check_build "fat tree" ft (b1 -. b0);
  check_build "dragonfly" df (b2 -. b1);
  check_build "dgx cluster" dgx (b3 -. b2)

(* The Dijkstra row cache is a speed/memory knob only: routes resolved
   through evicted and recomputed rows must be identical — links, ports and
   latency — to the first resolution and to the never-cached oracle,
   because eviction forces deterministic recomputation. A 70-GPU ring has
   more sources than the cache has rows, is table-routed and has
   equal-cost detours, so the link-id tie-break matters. *)
let test_cache_size_invariance () =
  let t = ring ~profile:a100 ~gpus:70 in
  check_str "table-routed" "tables" (T.routing_kind t);
  let n = T.num_vertices t in
  let resolve a b =
    (List.map (fun l -> l.T.lid) (T.route t ~src:a ~dst:b), T.route_ports t ~src:a ~dst:b)
  in
  let first = Array.init n (fun a -> Array.init n (resolve a)) in
  check_int "the cache is full" 64 (T.route_rows_cached t);
  (* Sources in reverse order: the rows of the last pass's early sources
     were evicted and are recomputed. *)
  for a = n - 1 downto 0 do
    for b = 0 to n - 1 do
      if resolve a b <> first.(a).(b) then
        Alcotest.failf "route or ports differ after eviction for %d->%d" a b;
      match Topo_oracle.dijkstra_reference t ~src:a ~dst:b with
      | Some (ids, l) ->
        if ids <> fst first.(a).(b) || lat t ~src:a ~dst:b <> Time.to_ns l then
          Alcotest.failf "route differs from the oracle for %d->%d" a b
      | None -> Alcotest.failf "oracle finds no route for %d->%d" a b
    done
  done;
  check_int "cache honours its cap" 64 (T.route_rows_cached t)

(* ---------------- specs --------------------------------------------------- *)

let test_spec_parsing () =
  let ok s v =
    match T.spec_of_string s with
    | Ok got -> check_bool (Printf.sprintf "parse %S" s) true (got = v)
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  ok "hgx" T.Hgx;
  ok "RING" T.Ring;
  ok "pcie" T.Pcie_only;
  ok "pcie_only" T.Pcie_only;
  ok "dgx" (T.Dgx { nodes = 2 });
  ok "dgx:4" (T.Dgx { nodes = 4 });
  check_bool "garbage rejected" true
    (match T.spec_of_string "torus" with Error _ -> true | Ok _ -> false);
  check_bool "dgx:0 rejected" true
    (match T.spec_of_string "dgx:0" with Error _ -> true | Ok _ -> false);
  check_str "dgx roundtrip" "dgx:3" (T.spec_to_string (T.Dgx { nodes = 3 }));
  check_bool "uneven dgx split rejected" true
    (try
       ignore (T.instantiate (T.Dgx { nodes = 3 }) ~profile:a100 ~gpus:8);
       false
     with Invalid_argument _ -> true);
  ok "fat-tree" (T.Fat_tree { arity = 4; rails = 1; gpus_per_node = 8 });
  ok "fat_tree:8" (T.Fat_tree { arity = 8; rails = 1; gpus_per_node = 8 });
  ok "FatTree:4:2:4" (T.Fat_tree { arity = 4; rails = 2; gpus_per_node = 4 });
  ok "dragonfly" (T.Dragonfly { a = 4; p = 2; h = 2; gpus_per_node = 8 });
  ok "Dragonfly:2:1:1:2" (T.Dragonfly { a = 2; p = 1; h = 1; gpus_per_node = 2 });
  check_str "fat-tree roundtrip" "fat-tree:4:2:8"
    (T.spec_to_string (T.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 }));
  check_str "dragonfly roundtrip" "dragonfly:4:2:2:8"
    (T.spec_to_string (T.Dragonfly { a = 4; p = 2; h = 2; gpus_per_node = 8 }));
  check_bool "fat-tree:0 rejected" true
    (match T.spec_of_string "fat-tree:0" with Error _ -> true | Ok _ -> false);
  check_bool "partial dragonfly spec rejected" true
    (match T.spec_of_string "dragonfly:2" with Error _ -> true | Ok _ -> false);
  check_bool "dragonfly over its global-link budget rejected" true
    (match
       T.validate (T.Dragonfly { a = 1; p = 1; h = 1; gpus_per_node = 1 }) ~gpus:8
     with
    | Error _ -> true
    | Ok () -> false)

let test_bad_lookups () =
  let t = hgx ~profile:a100 ~gpus:2 in
  check_bool "gpu_vertex range-checked" true
    (try
       ignore (T.gpu_vertex t 5);
       false
     with Invalid_argument _ -> true);
  check_bool "route vid range-checked" true
    (try
       ignore (T.route_latency t ~src:0 ~dst:999);
       false
     with Invalid_argument _ -> true)

(* ---------------- qcheck laws --------------------------------------------- *)

(* A machine's sharing key: (spec, profile, GPU count). *)
let gen_key =
  QCheck.Gen.(
    let* profile = oneofl [ a100; h100 ] in
    let* spec =
      oneof
        [
          return T.Hgx;
          return T.Ring;
          return T.Pcie_only;
          map (fun n -> T.Dgx { nodes = n }) (int_range 2 4);
          map2
            (fun arity rails -> T.Fat_tree { arity; rails; gpus_per_node = 2 })
            (int_range 2 3) (int_range 1 2);
          map (fun h -> T.Dragonfly { a = 2; p = 2; h; gpus_per_node = 2 }) (int_range 1 2);
        ]
    in
    let* per = int_range 1 6 in
    let gpus =
      match spec with
      | T.Dgx { nodes } -> nodes * per
      | T.Fat_tree _ | T.Dragonfly _ -> 2 * per
      | _ -> per + 1
    in
    return (spec, profile, gpus))

let gen_topology =
  QCheck.Gen.map (fun (spec, profile, gpus) -> T.instantiate spec ~profile ~gpus) gen_key

let arb_topology =
  QCheck.make ~print:(fun t -> Format.asprintf "%a" T.pp t) gen_topology

(* All named constructors build symmetric graphs: every routed cost must be
   direction-independent. *)
let prop_route_symmetry =
  QCheck.Test.make ~name:"routed latency is symmetric" ~count:100 arb_topology (fun t ->
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if T.reachable t ~src:a ~dst:b then
            ok :=
              !ok
              && T.reachable t ~src:b ~dst:a
              && Time.equal (T.route_latency t ~src:a ~dst:b) (T.route_latency t ~src:b ~dst:a)
        done
      done;
      !ok)

let prop_triangle =
  QCheck.Test.make ~name:"routed latency obeys the triangle inequality" ~count:100 arb_topology
    (fun t ->
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if
              T.reachable t ~src:a ~dst:b && T.reachable t ~src:b ~dst:c
              && T.reachable t ~src:a ~dst:c
            then
              ok :=
                !ok
                && Time.to_ns (T.route_latency t ~src:a ~dst:c)
                   <= Time.to_ns (T.route_latency t ~src:a ~dst:b)
                      + Time.to_ns (T.route_latency t ~src:b ~dst:c)
          done
        done
      done;
      !ok)

let prop_route_well_formed =
  QCheck.Test.make ~name:"routes are contiguous and latency-additive" ~count:100 arb_topology
    (fun t ->
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b && T.reachable t ~src:a ~dst:b then begin
            let r = T.route t ~src:a ~dst:b in
            let contiguous =
              match r with
              | [] -> false
              | first :: _ ->
                first.T.lsrc = a
                && (List.rev r |> List.hd).T.ldst = b
                && fst
                     (List.fold_left
                        (fun (good, prev) l -> (good && l.T.lsrc = prev, l.T.ldst))
                        (true, a) r)
            in
            let additive =
              List.fold_left (fun acc l -> acc + Time.to_ns l.T.llatency) 0 r
              = Time.to_ns (T.route_latency t ~src:a ~dst:b)
            in
            let bottleneck =
              Float.equal
                (List.fold_left (fun acc l -> Float.max acc l.T.lns_per_byte) 0.0 r)
                (T.route_ns_per_byte t ~src:a ~dst:b)
            in
            let ports =
              List.fold_left
                (fun acc l ->
                  List.fold_left (fun acc p -> if List.mem p acc then acc else acc @ [ p ]) acc l.T.lports)
                [] r
              = T.route_ports t ~src:a ~dst:b
            in
            ok := !ok && contiguous && additive && bottleneck && ports
          end
        done
      done;
      !ok)

(* Structural routing is property-tested against the uncached Dijkstra
   oracle: same reachability, same latency on every vertex pair. On fat
   trees and dragonflies the paths themselves may differ (equal-cost
   multipath across rails/spines), the costs may not; a dgx cluster is a
   tree, so there its paths must be the oracle's link for link. The
   generator pairs each machine with that [tree] flag. *)
let gen_structural =
  QCheck.Gen.(
    let* profile = oneofl [ a100; h100 ] in
    oneof
      [
        (let* nodes = int_range 1 8 in
         let* gpus_per_node = int_range 1 3 in
         return (dgx_cluster ~profile ~nodes ~gpus_per_node, true));
        (let* arity = int_range 2 4 in
         let* rails = int_range 1 3 in
         let* nodes = int_range 1 8 in
         let* gpus_per_node = int_range 1 3 in
         return (fat_tree ~profile ~arity ~rails ~nodes ~gpus_per_node, false));
        (let* a = int_range 2 3 in
         let* p = int_range 1 2 in
         let* h = int_range 1 2 in
         let* nodes = int_range 1 8 in
         let* gpus_per_node = int_range 1 2 in
         let nodes = min nodes (a * p * ((a * h) + 1)) in
         return (dragonfly ~profile ~a ~p ~h ~nodes ~gpus_per_node, false));
      ])

let arb_structural =
  QCheck.make
    ~print:(fun (t, tree) -> Format.asprintf "%a%s" T.pp t (if tree then " (tree)" else ""))
    gen_structural

let link_ids t ~src ~dst = List.map (fun l -> l.T.lid) (T.route t ~src ~dst)

(* The interconnect fills a pair's memo entry from one [route_summary]:
   on every vertex pair of one instance of each of the six constructors,
   it must agree with the three single queries and with folds over the
   route's links, and raise where they do. *)
let prop_route_summary =
  QCheck.Test.make ~name:"route_summary equals the three route queries" ~count:30
    QCheck.(pair (int_range 1 6) bool)
    (fun (per, fast) ->
      let profile = if fast then h100 else a100 in
      List.for_all
        (fun (spec, gpus) ->
          let t = T.instantiate spec ~profile ~gpus in
          let n = T.num_vertices t in
          let ok = ref true in
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              let summary = try Some (T.route_summary t ~src:a ~dst:b) with _ -> None in
              (* The reference: folds over the route's links, the vertex's
                 own rate on the empty route of a self-pair. *)
              let reference =
                try
                  let r = T.route t ~src:a ~dst:b in
                  let local = (List.nth (T.vertices t) a).T.local_ns_per_byte in
                  Some
                    ( List.fold_left (fun acc l -> Time.add acc l.T.llatency) Time.zero r,
                      (if r = [] then local
                       else List.fold_left (fun acc l -> Float.max acc l.T.lns_per_byte) 0.0 r),
                      List.fold_left
                        (fun acc l ->
                          List.fold_left
                            (fun acc p -> if List.mem p acc then acc else acc @ [ p ])
                            acc l.T.lports)
                        [] r )
                with _ -> None
              in
              let singles =
                try
                  Some
                    ( T.route_latency t ~src:a ~dst:b,
                      T.route_ns_per_byte t ~src:a ~dst:b,
                      T.route_ports t ~src:a ~dst:b )
                with _ -> None
              in
              ok :=
                !ok
                &&
                let agrees r = function
                  | Some (lat, nsb, ports) ->
                    Time.equal r.T.r_latency lat
                    && Float.equal r.T.r_ns_per_byte nsb
                    && Array.to_list r.T.r_ports = ports
                  | None -> false
                in
                match summary with
                | Some r -> agrees r singles && agrees r reference
                | None -> singles = None && reference = None
            done
          done;
          !ok)
        [
          (T.Hgx, per + 1);
          (T.Ring, per + 1);
          (T.Pcie_only, per + 1);
          (T.Dgx { nodes = 2 }, 2 * per);
          (T.Fat_tree { arity = 2; rails = 2; gpus_per_node = 2 }, 2 * per);
          (T.Dragonfly { a = 2; p = 2; h = 1; gpus_per_node = 2 }, 2 * per);
        ])

let prop_structural_matches_dijkstra =
  QCheck.Test.make ~name:"structural routing equals reference Dijkstra" ~count:40
    arb_structural (fun (t, tree) ->
      if T.routing_kind t <> "structural" then QCheck.Test.fail_report "not structural";
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          match Topo_oracle.dijkstra_reference t ~src:a ~dst:b with
          | None -> ok := !ok && not (T.reachable t ~src:a ~dst:b)
          | Some (ids, reference) ->
            ok :=
              !ok
              && T.reachable t ~src:a ~dst:b
              && Time.equal (T.route_latency t ~src:a ~dst:b) reference
              && ((not tree) || link_ids t ~src:a ~dst:b = ids)
        done
      done;
      !ok)

(* The tier-derived bounds that feed the interconnect's min/max wire
   latency must be the exact extremes: a brute-force fold of the oracle
   over every GPU pair. *)
let prop_structural_bounds_exact =
  QCheck.Test.make ~name:"structural latency bounds equal the reference fold" ~count:40
    arb_structural (fun (t, _) ->
      let pairs xs =
        List.concat_map
          (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) xs)
          xs
      in
      let fold pick ps =
        List.fold_left
          (fun acc (src, dst) ->
            match Topo_oracle.dijkstra_reference t ~src ~dst with
            | None -> QCheck.Test.fail_report "unreachable public pair"
            | Some (_, l) -> Some (match acc with None -> l | Some m -> pick m l))
          None ps
      in
      let gpus = List.init (T.num_gpus t) (T.gpu_vertex t) in
      let gg = pairs gpus in
      let same = Option.equal Time.equal in
      same (T.min_gpu_pair_latency t) (fold Time.min gg)
      && same (T.max_gpu_pair_latency t) (fold Time.max gg))

(* ---------------- degraded routing ---------------------------------------- *)

let test_ring_reroutes_around_dead_link () =
  let t = ring ~profile:a100 ~gpus:4 in
  let g0 = T.gpu_vertex t 0 and g1 = T.gpu_vertex t 1 in
  let healthy = lat t ~src:g0 ~dst:g1 in
  check_bool "starts healthy" false (T.degraded t);
  check_int "epoch starts at zero" 0 (T.route_epoch t);
  T.fail_link t ~src:"gpu0" ~dst:"gpu1";
  check_bool "degraded" true (T.degraded t);
  check_bool "epoch bumped" true (T.route_epoch t > 0);
  check_bool "still reachable" true (T.reachable t ~src:g0 ~dst:g1);
  (* The ring reroutes the long way round: three live hops. *)
  check_int "detour latency" (3 * healthy) (lat t ~src:g0 ~dst:g1);
  List.iter
    (fun l ->
      check_bool "route avoids the corpse" false
        ((l.T.lsrc = g0 && l.T.ldst = g1) || (l.T.lsrc = g1 && l.T.ldst = g0)))
    (T.route t ~src:g0 ~dst:g1);
  (* Idempotent: killing the same link again changes nothing. *)
  let epoch = T.route_epoch t in
  T.fail_link t ~src:"gpu0" ~dst:"gpu1";
  check_int "idempotent" epoch (T.route_epoch t)

let test_second_failure_partitions () =
  let t = ring ~profile:a100 ~gpus:4 in
  T.fail_link t ~src:"gpu0" ~dst:"gpu1";
  T.fail_link t ~src:"gpu1" ~dst:"gpu2";
  let g0 = T.gpu_vertex t 0 and g1 = T.gpu_vertex t 1 in
  check_bool "gpu1 cut off" false (T.reachable t ~src:g0 ~dst:g1);
  (match T.route_latency t ~src:g0 ~dst:g1 with
  | (_ : Time.t) -> Alcotest.fail "expected Partitioned"
  | exception T.Partitioned msg ->
    check_bool "diagnosis names the endpoints" true
      (Astring.String.is_infix ~affix:"gpu0" msg && Astring.String.is_infix ~affix:"gpu1" msg));
  check_bool "dead links listed" true (T.dead_links t <> []);
  (* The rest of the ring still talks. *)
  check_bool "survivors route" true
    (T.reachable t ~src:g0 ~dst:(T.gpu_vertex t 3))

let test_switch_failure_cuts_node () =
  let t = dgx_cluster ~profile:a100 ~nodes:2 ~gpus_per_node:2 in
  T.fail_switch t ~name:"node1.nvswitch";
  Alcotest.(check (list string)) "obituary" [ "node1.nvswitch" ] (T.dead_vertices t);
  let g0 = T.gpu_vertex t 0 and g2 = T.gpu_vertex t 2 in
  (* Node 1's GPUs hang off the dead switch: unreachable from node 0. *)
  check_bool "cross-node dead" false (T.reachable t ~src:g0 ~dst:g2);
  (* Node 0 stays intact. *)
  check_bool "node0 intact" true (T.reachable t ~src:g0 ~dst:(T.gpu_vertex t 1))

(* Degraded routing is property-tested against the same Dijkstra oracle,
   which recomputes on the surviving subgraph: after a deterministic
   link/switch kill, re-resolved routes must match the oracle, avoid the
   corpse, and keep the metric laws. *)

let apply_kill t pick =
  let vs = Array.of_list (T.vertices t) in
  let links = Array.of_list (T.links t) in
  let switches =
    List.filter
      (fun v -> match v.T.kind with T.Switch _ -> true | _ -> false)
      (T.vertices t)
  in
  if pick land 1 = 1 && switches <> [] then begin
    let v = List.nth switches (pick / 2 mod List.length switches) in
    T.fail_switch t ~name:v.T.vname;
    None
  end
  else begin
    let l = links.(pick / 2 mod Array.length links) in
    T.fail_link t ~src:vs.(l.T.lsrc).T.vname ~dst:vs.(l.T.ldst).T.vname;
    Some (l.T.lsrc, l.T.ldst)
  end

let arb_degraded =
  QCheck.make
    ~print:(fun (t, pick) -> Format.asprintf "%a kill=%d" T.pp t pick)
    QCheck.Gen.(pair gen_topology (int_bound 9999))

let prop_degraded_matches_dijkstra =
  QCheck.Test.make ~name:"degraded routing equals the dead-aware Dijkstra oracle"
    ~count:60 arb_degraded (fun (t, pick) ->
      let vs = Array.of_list (T.vertices t) in
      let killed_pair = apply_kill t pick in
      if not (T.degraded t) then QCheck.Test.fail_report "kill did not degrade";
      let dead = T.dead_vertices t in
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          match Topo_oracle.dijkstra_reference t ~src:a ~dst:b with
          | None -> ok := !ok && not (T.reachable t ~src:a ~dst:b)
          | Some (_, reference) ->
            ok :=
              !ok
              && T.reachable t ~src:a ~dst:b
              && Time.equal (T.route_latency t ~src:a ~dst:b) reference
              && T.reachable t ~src:b ~dst:a
              && Time.equal (T.route_latency t ~src:b ~dst:a) reference;
            if a <> b && !ok then
              List.iter
                (fun l ->
                  if
                    List.mem vs.(l.T.lsrc).T.vname dead
                    || List.mem vs.(l.T.ldst).T.vname dead
                  then ok := false;
                  match killed_pair with
                  | Some (x, y) ->
                    if (l.T.lsrc = x && l.T.ldst = y) || (l.T.lsrc = y && l.T.ldst = x)
                    then ok := false
                  | None -> ())
                (T.route t ~src:a ~dst:b)
        done
      done;
      !ok)

(* The production tables settle vertices from a heap; the oracle scans
   linearly. On a table-routed machine every route must be the oracle's
   link for link — same extraction order, same link-id tie-breaks — healthy
   and after a kill. Structural machines (whose healthy routes never touch
   the tables, and whose degraded ones mix in structural paths) are held to
   latency equality. *)
let prop_tables_match_scan =
  QCheck.Test.make ~name:"heap-routed tables equal the linear-scan reference" ~count:60
    arb_degraded (fun (t, pick) ->
      let tables = T.routing_kind t = "tables" in
      let agrees () =
        let n = T.num_vertices t in
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            match Topo_oracle.dijkstra_reference t ~src:a ~dst:b with
            | None -> ok := !ok && not (T.reachable t ~src:a ~dst:b)
            | Some (ids, reference) ->
              ok :=
                !ok
                && Time.equal (T.route_latency t ~src:a ~dst:b) reference
                && ((not tables) || link_ids t ~src:a ~dst:b = ids)
          done
        done;
        !ok
      in
      let healthy = agrees () in
      let (_ : (int * int) option) = apply_kill t pick in
      healthy && agrees ())

(* The same equivalence on random multigraphs, where small latencies
   (zero included) make equal-cost paths, hop-count ties and cheap
   multi-hop detours common — cases the named constructors barely reach. *)
let gen_graph =
  QCheck.Gen.(
    let* nv = int_range 2 10 in
    let endpoint = int_bound (nv - 1) in
    let* edges = list_size (int_range 0 30) (triple endpoint endpoint (int_bound 4)) in
    let links =
      List.mapi
        (fun lid (lsrc, ldst, lat) ->
          {
            T.lid;
            lsrc;
            ldst;
            lkind = T.Nvlink;
            llatency = Time.ns (100 * lat);
            lns_per_byte = 1.0;
            lports = [];
          })
        (List.filter (fun (a, b, _) -> a <> b) edges)
    in
    return (nv, links))

let prop_heap_matches_scan_on_graphs =
  QCheck.Test.make ~name:"heap rows equal linear-scan rows on random graphs" ~count:300
    (QCheck.make
       ~print:(fun (nv, links) ->
         Printf.sprintf "%d vertices: %s" nv
           (String.concat " "
              (List.map
                 (fun l -> Printf.sprintf "%d->%d@%d" l.T.lsrc l.T.ldst (Time.to_ns l.T.llatency))
                 links)))
       gen_graph)
    (fun (nv, links) ->
      List.for_all
        (fun src -> T.shortest_row ~nv links ~src = Topo_oracle.reference_row ~nv links ~src)
        (List.init nv Fun.id))

let prop_degraded_triangle =
  QCheck.Test.make ~name:"degraded latency keeps symmetry and the triangle inequality"
    ~count:40 arb_degraded (fun (t, pick) ->
      let (_ : (int * int) option) = apply_kill t pick in
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if
              T.reachable t ~src:a ~dst:b && T.reachable t ~src:b ~dst:c
              && T.reachable t ~src:a ~dst:c
            then
              ok :=
                !ok
                && Time.to_ns (T.route_latency t ~src:a ~dst:c)
                   <= Time.to_ns (T.route_latency t ~src:a ~dst:b)
                      + Time.to_ns (T.route_latency t ~src:b ~dst:c)
          done
        done
      done;
      !ok)

(* Instances of one key share one graph per domain, and nothing else: a
   shared instance answers every route query like a graph built for it
   alone, and a failure on one instance reaches no other. [answers] is
   what a run can read: every vertex, link and port, and the route
   summary (or the error) of every vertex pair. *)
let answers t =
  let n = T.num_vertices t in
  let summary a b =
    match T.route_summary t ~src:a ~dst:b with
    | r -> Ok (Time.to_ns r.T.r_latency, r.T.r_ns_per_byte, r.T.r_ports)
    | exception (Invalid_argument m | T.Partitioned m) -> Error m
  in
  ( (T.vertices t, T.links t, T.ports t),
    List.init n (fun a -> List.init n (summary a)) )

let arb_key =
  QCheck.make
    ~print:(fun (spec, (profile : T.profile), gpus) ->
      Printf.sprintf "%s %s gpus=%d" (T.spec_to_string spec) profile.pname gpus)
    gen_key

let prop_shared_equals_fresh =
  QCheck.Test.make ~name:"a shared instance answers like a fresh build" ~count:60 arb_key
    (fun (spec, profile, gpus) ->
      let fresh = answers (T.build spec ~profile ~gpus) in
      (* The second instance is the one sure to read the shared graph. *)
      ignore (T.instantiate spec ~profile ~gpus : T.t);
      answers (T.instantiate spec ~profile ~gpus) = fresh)

let prop_failure_stays_in_its_run =
  QCheck.Test.make ~name:"a failure degrades its own instance and no other" ~count:60
    (QCheck.pair arb_key (QCheck.int_bound 9999))
    (fun ((spec, profile, gpus), pick) ->
      let before = T.instantiate spec ~profile ~gpus in
      let a = T.instantiate spec ~profile ~gpus in
      let (_ : (int * int) option) = apply_kill a pick in
      let after = T.instantiate spec ~profile ~gpus in
      let reference = T.build spec ~profile ~gpus in
      let healthy = answers reference in
      let (_ : (int * int) option) = apply_kill reference pick in
      T.degraded a
      && answers a = answers reference
      && List.for_all
           (fun b ->
             (not (T.degraded b))
             && T.route_epoch b = 0
             && T.dead_links b = []
             && answers b = healthy)
           [ before; after ])

let prop_domains_agree =
  QCheck.Test.make ~name:"two domains instantiating one key agree" ~count:20 arb_key
    (fun (spec, profile, gpus) ->
      match
        Cpufree_core.Parallel.map ~jobs:2
          (fun () -> answers (T.instantiate spec ~profile ~gpus))
          [ (); () ]
      with
      | [ x; y ] -> x = y && x = answers (T.build spec ~profile ~gpus)
      | _ -> false)

(* [cpufree_run machine --json] prints [Machine_json.to_json] without
   re-checking it, so the renderer answers to the schema check here: for
   generated machines, healthy and after a kill, and for every named preset
   (at a size that samples its routes, too), the document validates. A
   degraded document lists the routes that survive, so a kill that leaves
   no two public endpoints connected renders an empty route table, which
   the schema refuses for that reason alone. *)
let machine_verdict t = Cpufree_core.Machine_json.validate (Cpufree_core.Machine_json.to_json t)

let machine_doc_valid t =
  match machine_verdict t with
  | Ok () -> true
  | Error m -> QCheck.Test.fail_reportf "%s: %s" (T.name t) m

let public_pair_connected t =
  let publics =
    List.filter (fun v -> match v.T.kind with T.Switch _ -> false | _ -> true) (T.vertices t)
  in
  List.exists
    (fun a ->
      List.exists
        (fun b -> a.T.vid <> b.T.vid && T.reachable t ~src:a.T.vid ~dst:b.T.vid)
        publics)
    publics

let prop_machine_json_validates =
  QCheck.Test.make ~name:"every rendered machine document validates" ~count:60 arb_degraded
    (fun (t, pick) ->
      let healthy = machine_doc_valid t in
      let (_ : (int * int) option) = apply_kill t pick in
      healthy
      &&
      if public_pair_connected t then machine_doc_valid t
      else machine_verdict t = Error "routes must be non-empty")

let test_presets_render_valid () =
  List.iter
    (fun (name, gpus) ->
      match T.spec_of_string name with
      | Error e -> Alcotest.fail e
      | Ok spec ->
        List.iter
          (fun profile ->
            check_bool (Printf.sprintf "%s with %d GPUs" name gpus) true
              (machine_doc_valid (T.instantiate spec ~profile ~gpus)))
          [ a100; h100 ])
    [
      ("hgx", 8); ("ring", 8); ("pcie", 8); ("dgx", 8); ("fat-tree", 16); ("dragonfly", 16);
      ("dgx:4", 32); ("fat-tree", 256);
    ]

let () =
  Alcotest.run "machine"
    [
      ( "hgx",
        [
          Alcotest.test_case "gpu pair" `Quick test_hgx_gpu_pair;
          Alcotest.test_case "host paths" `Quick test_hgx_host_paths;
          Alcotest.test_case "self route" `Quick test_hgx_self;
          Alcotest.test_case "pair stats" `Quick test_hgx_pair_stats;
        ] );
      ( "dgx",
        [
          Alcotest.test_case "inter-node" `Quick test_dgx_internode;
          Alcotest.test_case "hosts" `Quick test_dgx_hosts;
        ] );
      ( "alt fabrics",
        [
          Alcotest.test_case "ring multi-hop" `Quick test_ring_multihop;
          Alcotest.test_case "pcie only" `Quick test_pcie_only;
        ] );
      ( "cluster fabrics",
        [
          Alcotest.test_case "fat tree latency classes" `Quick test_fat_tree_classes;
          Alcotest.test_case "dragonfly latency classes" `Quick test_dragonfly_classes;
          Alcotest.test_case "1024-GPU build is lazy" `Quick test_cluster_build_lazy;
          Alcotest.test_case "route cache size is invisible" `Quick test_cache_size_invariance;
        ] );
      ( "specs",
        [
          Alcotest.test_case "parsing" `Quick test_spec_parsing;
          Alcotest.test_case "bad lookups" `Quick test_bad_lookups;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "ring reroutes around a dead link" `Quick
            test_ring_reroutes_around_dead_link;
          Alcotest.test_case "second failure partitions with a diagnosis" `Quick
            test_second_failure_partitions;
          Alcotest.test_case "switch failure cuts its node off" `Quick
            test_switch_failure_cuts_node;
        ] );
      ( "machine json",
        [ Alcotest.test_case "named presets render valid documents" `Quick test_presets_render_valid ]
      );
      ( "laws",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest p)
          [
            Scenario_gen.total ~name:"spec_of_string is total on damaged specs" ~count:2000
              T.spec_of_string Scenario_gen.topology_line;
            prop_route_symmetry;
            prop_triangle;
            prop_route_well_formed;
            prop_route_summary;
            prop_structural_matches_dijkstra;
            prop_structural_bounds_exact;
            prop_tables_match_scan;
            prop_heap_matches_scan_on_graphs;
            prop_degraded_matches_dijkstra;
            prop_degraded_triangle;
            prop_machine_json_validates;
            prop_shared_equals_fresh;
            prop_failure_stays_in_its_run;
            prop_domains_agree;
          ] );
    ]
