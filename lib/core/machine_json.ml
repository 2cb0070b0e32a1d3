module M = Cpufree_machine
module T = M.Topology
module Time = Cpufree_engine.Time

let schema_version = 1

(* Routes are emitted between public endpoints only (GPUs, hosts, NICs);
   switch-to-switch internals are visible through the links they are made
   of, not as route rows. A machine degraded by fail-stop events lists the
   routes that survive them. *)
let public_vertices topo =
  List.filter
    (fun v -> match v.T.kind with T.Switch _ -> false | _ -> true)
    (T.vertices topo)

let vertex_json v =
  let node =
    match v.T.kind with
    | T.Gpu { node; _ } | T.Host { node } | T.Nic { node } -> Json.Int node
    | T.Switch { node = Some n } -> Json.Int n
    | T.Switch { node = None } -> Json.Null
  in
  Json.Obj
    [
      ("id", Json.Int v.T.vid);
      ("name", Json.String v.T.vname);
      ("kind", Json.String (T.string_of_vertex_kind v.T.kind));
      ("node", node);
      ("local_gbs", Json.Float (1.0 /. v.T.local_ns_per_byte));
    ]

let link_json ports l =
  Json.Obj
    [
      ("id", Json.Int l.T.lid);
      ("src", Json.Int l.T.lsrc);
      ("dst", Json.Int l.T.ldst);
      ("kind", Json.String (T.string_of_link_kind l.T.lkind));
      ("latency_ns", Json.Int (Time.to_ns l.T.llatency));
      ("bandwidth_gbs", Json.Float (1.0 /. l.T.lns_per_byte));
      ("ports", Json.List (List.map (fun p -> Json.String ports.(p).T.pname) l.T.lports));
    ]

let route_json topo ~src ~dst =
  let links = T.route topo ~src:src.T.vid ~dst:dst.T.vid in
  Json.Obj
    [
      ("src", Json.String src.T.vname);
      ("dst", Json.String dst.T.vname);
      ("latency_ns", Json.Int (Time.to_ns (T.route_latency topo ~src:src.T.vid ~dst:dst.T.vid)));
      ( "bandwidth_gbs",
        Json.Float (1.0 /. T.route_ns_per_byte topo ~src:src.T.vid ~dst:dst.T.vid) );
      ("links", Json.List (List.map (fun l -> Json.Int l.T.lid) links));
    ]

(* On a cluster-scale machine the full public-pair route matrix is O(V^2)
   resolutions — exactly the table the lazy router exists to avoid. Past
   [sample_cap] public endpoints the document carries the pairs among a
   deterministic sample (the head and tail of the endpoint list, which
   spans same-node, cross-node and NIC routes) and says so with a
   "routes_sampled" marker; smaller machines — every preset that existed
   before the cluster topologies — keep the exact full matrix and no
   marker, byte for byte. *)
let sample_cap = 24

let route_sources publics =
  let n = List.length publics in
  if n <= sample_cap then (publics, false)
  else
    let arr = Array.of_list publics in
    let half = sample_cap / 2 in
    ( List.init half (fun i -> arr.(i)) @ List.init half (fun i -> arr.(n - half + i)),
      true )

let to_json topo =
  let ports = Array.of_list (T.ports topo) in
  let publics = public_vertices topo in
  let sample, sampled = route_sources publics in
  let routes =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src.T.vid <> dst.T.vid && T.reachable topo ~src:src.T.vid ~dst:dst.T.vid then
              Some (route_json topo ~src ~dst)
            else None)
          sample)
      sample
  in
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("name", Json.String (T.name topo));
       ("nodes", Json.Int (T.num_nodes topo));
       ("gpus", Json.Int (T.num_gpus topo));
       ("endpoints", Json.List (List.map vertex_json (T.vertices topo)));
       ("ports", Json.List (List.map (fun p -> Json.String p.T.pname) (Array.to_list ports)));
       ("links", Json.List (List.map (link_json ports) (T.links topo)));
       ("routes", Json.List routes);
     ]
    @ if sampled then [ ("routes_sampled", Json.Bool true) ] else [])

(* Structural schema check, mirroring the benchmark-results validator: every
   emitted document must carry these fields with these shapes, so a consumer
   can rely on them. *)
let required_top = [ "schema_version"; "name"; "nodes"; "gpus"; "endpoints"; "ports"; "links"; "routes" ]
let required_link = [ "id"; "src"; "dst"; "kind"; "latency_ns"; "bandwidth_gbs"; "ports" ]
let required_route = [ "src"; "dst"; "latency_ns"; "bandwidth_gbs"; "links" ]
let required_endpoint = [ "id"; "name"; "kind"; "node"; "local_gbs" ]

let validate doc =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let fields obj = match obj with Json.Obj kvs -> Some kvs | _ -> None in
  let check_fields what required obj k =
    match fields obj with
    | None -> err "%s is not an object" what
    | Some kvs -> (
      match List.find_opt (fun f -> not (List.mem_assoc f kvs)) required with
      | Some missing -> err "%s is missing field %S" what missing
      | None -> k kvs)
  in
  let check_all what required = function
    | Json.List elems ->
      let rec go i = function
        | [] -> Ok ()
        | e :: rest ->
          check_fields (Printf.sprintf "%s[%d]" what i) required e (fun _ -> go (i + 1) rest)
      in
      go 0 elems
    | _ -> err "%S is not a list" what
  in
  check_fields "machine document" required_top doc (fun kvs ->
      let pos what = function
        | Json.Int n when n > 0 -> Ok ()
        | Json.Int n -> err "%S must be positive, got %d" what n
        | _ -> err "%S is not an integer" what
      in
      let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
      let* () = pos "nodes" (List.assoc "nodes" kvs) in
      let* () = pos "gpus" (List.assoc "gpus" kvs) in
      let* () = check_all "endpoints" required_endpoint (List.assoc "endpoints" kvs) in
      let* () = check_all "links" required_link (List.assoc "links" kvs) in
      let* () = check_all "routes" required_route (List.assoc "routes" kvs) in
      match List.assoc "routes" kvs with
      | Json.List [] -> err "routes must be non-empty"
      | _ -> Ok ())
