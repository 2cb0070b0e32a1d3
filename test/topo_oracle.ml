(* The shortest-path oracle for routing: a linear-scan Dijkstra, O(V^2),
   sharing no extract-min with the heap-backed tables of [Topology]. It
   rebuilds the graph from the public [num_vertices]/[links], so both the
   structural routers and the lazy tables are checked against the plainest
   possible search. Once a machine is degraded it searches the surviving
   subgraph: a fail-stopped vertex has every incident link dead, so the
   dead link ids are all it needs. *)

module T = Cpufree_machine.Topology
module Time = Cpufree_engine.Time

(* Out-adjacency in ascending link id, the relaxation order the link-id
   tie-break relies on. *)
let adjacency nv links =
  let adj = Array.make nv [] in
  List.iter (fun (l : T.link) -> adj.(l.lsrc) <- l :: adj.(l.lsrc)) links;
  Array.map (List.sort (fun (a : T.link) c -> compare a.lid c.lid)) adj

(* Per-vertex latency in ns, hop count and incoming link id ([max_int],
   [max_int], [-1] when unreachable). Vertices settle in (latency, hops,
   vertex id) order; among equal paths the lowest incoming link id wins. *)
let scan ?(dead = fun _ -> false) ~nv links ~src =
  if src < 0 || src >= nv then invalid_arg "Topo_oracle.reference_row: no such source";
  let adj = adjacency nv links in
  let dist = Array.make nv max_int and hops = Array.make nv max_int in
  let pred = Array.make nv (-1) and visited = Array.make nv false in
  dist.(src) <- 0;
  hops.(src) <- 0;
  let rec loop () =
    let u = ref (-1) in
    for v = 0 to nv - 1 do
      if (not visited.(v)) && dist.(v) < max_int then
        if
          !u < 0
          || dist.(v) < dist.(!u)
          || (dist.(v) = dist.(!u) && (hops.(v) < hops.(!u) || (hops.(v) = hops.(!u) && v < !u)))
        then u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      visited.(u) <- true;
      List.iter
        (fun (l : T.link) ->
          let v = l.ldst in
          if (not visited.(v)) && not (dead l.lid) then begin
            let nd = dist.(u) + Time.to_ns l.llatency and nh = hops.(u) + 1 in
            if
              nd < dist.(v)
              || (nd = dist.(v)
                 && (nh < hops.(v) || (nh = hops.(v) && (pred.(v) < 0 || l.lid < pred.(v)))))
            then begin
              dist.(v) <- nd;
              hops.(v) <- nh;
              pred.(v) <- l.lid
            end
          end)
        adj.(u);
      loop ()
    end
  in
  loop ();
  (dist, hops, pred)

(* What [T.shortest_row] returns, from the linear scan. *)
let reference_row ~nv links ~src = scan ~nv links ~src

(* A freshly computed shortest path on the machine's surviving graph: the
   link ids in travel order and the total latency, or [None] when
   unreachable. *)
let dijkstra_reference t ~src ~dst =
  if src = dst then Some ([], Time.zero)
  else begin
    let links = T.links t in
    let by_id = Array.of_list links in
    let dead_ids = T.dead_links t in
    let dead lid = List.mem lid dead_ids in
    let dist, _, pred = scan ~dead ~nv:(T.num_vertices t) links ~src in
    if dist.(dst) = max_int then None
    else begin
      let rec walk v acc =
        if v = src then acc
        else
          let (l : T.link) = by_id.(pred.(v)) in
          walk l.lsrc (l.lid :: acc)
      in
      Some (walk dst [], Time.ns dist.(dst))
    end
  end
