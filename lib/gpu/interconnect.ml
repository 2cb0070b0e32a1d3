module E = Cpufree_engine
module M = Cpufree_machine
module F = Cpufree_fault.Fault
module Mx = Cpufree_obs.Metrics
module Time = E.Time

type endpoint = Gpu of int | Host
type initiator = By_host | By_device

(* The fabric is a thin façade over a routed {!Cpufree_machine.Topology}
   graph: the first transfer between an endpoint pair resolves its route
   into a (wire latency, bottleneck inverse bandwidth, port resources)
   entry, and every later [transfer_time] call on that pair — millions per
   stencil sweep — does no routing, no float division and no repeated
   [Time] arithmetic, just array reads. Only pairs that actually
   communicate pay anything: a 1024-GPU machine running a ring allreduce
   resolves ~2 entries per endpoint instead of the full (n+1)² table. *)

(* Metrics instruments (when a registry is attached): run totals plus
   per-port byte and occupancy counters. *)
type instr = {
  m_transfers : Mx.Counter.h;
  m_bytes : Mx.Counter.h;
  m_port_bytes : Mx.Counter.h array; (* indexed by topology port id *)
  m_port_busy : Mx.Counter.h array; (* occupied ns per port *)
}

(* One resolved endpoint pair. *)
type entry = {
  e_lat : Time.t; (* wire only; initiator setup added per call *)
  e_nsb : float;
  e_ports : E.Sync.Resource.t array;
  e_pids : int array; (* topology port ids along the route *)
}

type fail_action = Fail_link of string * string | Fail_switch of string

type t = {
  eng : E.Engine.t;
  arch : Arch.t;
  n : int;
  topo : M.Topology.t;
  ports : E.Sync.Resource.t array; (* one per topology port, indexed by pid *)
  setup : Time.t array; (* indexed by initiator *)
  rows : entry option array option array; (* rows.(src_idx).(dst_idx), lazy *)
  min_gpu_wire : Time.t;
  max_gpu_wire : Time.t;
  faults : F.plan option;
  obs : instr option;
  mutable total_bytes : int;
  mutable total_transfers : int;
  mutable epoch : int; (* topology route_epoch the memo was filled under *)
  mutable pending_fails : (Time.t * fail_action) list; (* ascending by time *)
}

let init_idx = function By_host -> 0 | By_device -> 1

(* Endpoint index for the memo tables: GPU [g] is [g], the host is [n]. On a
   multi-node machine "the host" is relative — it resolves to the host of the
   peer GPU's node (a host-staged copy talks to the local host), and
   host-to-host means node 0 talking to itself. *)
let vertex_pair topo ~src ~dst =
  let gv g = M.Topology.gpu_vertex topo g in
  let hv g = M.Topology.host_vertex topo ~node:(M.Topology.node_of_gpu topo g) in
  match (src, dst) with
  | Gpu a, Gpu b -> (gv a, gv b)
  | Host, Gpu b -> (hv b, gv b)
  | Gpu a, Host -> (gv a, hv a)
  | Host, Host ->
    let h = M.Topology.host_vertex topo ~node:0 in
    (h, h)

let endpoint_of_idx n i = if i = n then Host else Gpu i

let create ?(topology = M.Topology.Hgx) ?faults ?metrics eng ~arch ~num_gpus =
  if num_gpus <= 0 then invalid_arg "Interconnect.create: need at least one GPU";
  let topo = M.Topology.instantiate topology ~profile:(Arch.fabric_profile arch) ~gpus:num_gpus in
  let port_list = M.Topology.ports topo in
  let ports =
    Array.of_list
      (List.map (fun p -> E.Sync.Resource.create ~name:p.M.Topology.pname eng ()) port_list)
  in
  let n = num_gpus in
  let m = n + 1 in
  let obs =
    match metrics with
    | None -> None
    | Some reg ->
      let port_counter what p =
        Mx.counter reg ~name:what ~labels:[ ("port", p.M.Topology.pname) ] ()
      in
      Some
        {
          m_transfers = Mx.counter reg ~name:"fabric.transfers" ();
          m_bytes = Mx.counter reg ~name:"fabric.bytes" ();
          m_port_bytes = Array.of_list (List.map (port_counter "fabric.port.bytes") port_list);
          m_port_busy = Array.of_list (List.map (port_counter "fabric.port.busy_ns") port_list);
        }
  in
  let gpu_wire pick fallback =
    match pick topo with Some l -> l | None -> fallback
  in
  {
    eng;
    arch;
    n;
    topo;
    ports;
    setup = [| arch.Arch.host_initiated_latency; arch.Arch.gpu_initiated_latency |];
    rows = Array.make m None;
    min_gpu_wire = gpu_wire M.Topology.min_gpu_pair_latency arch.Arch.nvlink_latency;
    max_gpu_wire = gpu_wire M.Topology.max_gpu_pair_latency arch.Arch.nvlink_latency;
    faults;
    obs;
    total_bytes = 0;
    total_transfers = 0;
    epoch = M.Topology.route_epoch topo;
    pending_fails =
      (* Scheduled fabric deaths from the fault plan, enacted lazily when
         virtual time first reaches them (see [sync_failures]). Empty for
         every plan without fail-stop clauses — those runs never touch any
         of the degradation machinery. *)
      (match faults with
      | None -> []
      | Some plan ->
        let s = F.spec_of plan in
        List.map (fun ((a, b), at) -> (at, Fail_link (a, b))) s.F.link_fails
        @ List.map (fun (nm, at) -> (at, Fail_switch nm)) s.F.switch_fails
        |> List.stable_sort (fun (a, _) (b, _) -> compare (Time.to_ns a) (Time.to_ns b)));
  }

let num_gpus t = t.n
let arch t = t.arch
let topology t = t.topo
let num_nodes t = M.Topology.num_nodes t.topo
let node_of_gpu t g = M.Topology.node_of_gpu t.topo g

let check_endpoint t = function
  | Host -> ()
  | Gpu i ->
    if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Interconnect: no such GPU %d" i)

let idx_of t = function Gpu g -> g | Host -> t.n

(* Enact any scheduled fabric death whose virtual time has arrived, then
   drop the whole pair memo if the topology's route epoch moved (whether we
   moved it or a caller degraded the topology directly): entries resolved on
   the healthy graph must not outlive a failure. On every run without
   scheduled fabric deaths [pending_fails] is empty and the epoch never
   moves, leaving only two reads on the fast path. *)
let rec enact_failures t =
  match t.pending_fails with
  | (at, act) :: rest when Time.(at <= E.Engine.now t.eng) ->
    t.pending_fails <- rest;
    (match act with
    | Fail_link (a, b) -> M.Topology.fail_link t.topo ~src:a ~dst:b
    | Fail_switch nm -> M.Topology.fail_switch t.topo ~name:nm);
    enact_failures t
  | _ -> ()

let sync_failures t =
  if t.pending_fails <> [] then enact_failures t;
  let epoch = M.Topology.route_epoch t.topo in
  if t.epoch <> epoch then begin
    Array.fill t.rows 0 (Array.length t.rows) None;
    t.epoch <- epoch
  end

(* Resolve an endpoint pair's routing entry, filling the memo on first use. *)
let resolve t ~si ~di =
  sync_failures t;
  let row =
    match t.rows.(si) with
    | Some row -> row
    | None ->
      let row = Array.make (t.n + 1) None in
      t.rows.(si) <- Some row;
      row
  in
  match row.(di) with
  | Some e -> e
  | None ->
    let src = endpoint_of_idx t.n si and dst = endpoint_of_idx t.n di in
    let vs, vd = vertex_pair t.topo ~src ~dst in
    let route_pids = M.Topology.route_ports t.topo ~src:vs ~dst:vd in
    let e =
      {
        e_lat = M.Topology.route_latency t.topo ~src:vs ~dst:vd;
        e_nsb = M.Topology.route_ns_per_byte t.topo ~src:vs ~dst:vd;
        e_ports = Array.of_list (List.map (fun p -> t.ports.(p)) route_pids);
        e_pids = Array.of_list route_pids;
      }
    in
    row.(di) <- Some e;
    e

let entry_for t ~src ~dst = resolve t ~si:(idx_of t src) ~di:(idx_of t dst)

let wire_latency t ~src ~dst =
  check_endpoint t src;
  check_endpoint t dst;
  (entry_for t ~src ~dst).e_lat

let min_gpu_wire_latency t = t.min_gpu_wire
let max_gpu_wire_latency t = t.max_gpu_wire

let path_latency t e ~initiator = Time.add e.e_lat t.setup.(init_idx initiator)

let serialization_time e ~bytes =
  if bytes = 0 then Time.zero else Time.of_ns_float (float_of_int bytes *. e.e_nsb)

let transfer_time t ~src ~dst ~initiator ~bytes =
  check_endpoint t src;
  check_endpoint t dst;
  let e = entry_for t ~src ~dst in
  Time.add (path_latency t e ~initiator) (serialization_time e ~bytes)

(* Whether a transfer crosses node boundaries (and therefore rides a NIC). *)
let inter_node t ~src ~dst =
  match (src, dst) with
  | Gpu a, Gpu b -> M.Topology.node_of_gpu t.topo a <> M.Topology.node_of_gpu t.topo b
  | Gpu _, Host | Host, Gpu _ | Host, Host -> false

(* Extra latency the fault plan holds a path for right now: a NIC outage
   stalls inter-node traffic until the outage interval ends. Zero without
   an active plan, so fault-free runs stay byte-identical. *)
let fault_hold t ~src ~dst =
  match t.faults with
  | None -> Time.zero
  | Some plan ->
    fst (F.fabric_penalty plan ~now:(E.Engine.now t.eng) ~inter_node:(inter_node t ~src ~dst))

(* A transfer written once as steps, so a caller without a fiber can run
   it: book latency and serialization on every port of the route (plus any
   fault penalty) and count the transfer, [wait] until the last byte is in,
   log it, then continue with [k]. *)
let transfer_steps t ~src ~dst ~initiator ~bytes ?trace_lane ?(label = "xfer") ~wait k =
  check_endpoint t src;
  check_endpoint t dst;
  if bytes < 0 then invalid_arg "Interconnect.transfer: negative size";
  let e = entry_for t ~src ~dst in
  let latency = path_latency t e ~initiator in
  let dur = serialization_time e ~bytes in
  (* Fault-plan degradation: link-flap windows multiply serialization on
     every path; a NIC outage holds inter-node transfers to its end. *)
  let latency, dur =
    match t.faults with
    | None -> (latency, dur)
    | Some plan ->
      let extra, mult =
        F.fabric_penalty plan ~now:(E.Engine.now t.eng) ~inter_node:(inter_node t ~src ~dst)
      in
      ( Time.add latency extra,
        if Float.equal mult 1.0 then dur else Time.scale dur mult )
  in
  let t0 = E.Engine.now t.eng in
  let finish =
    match e.e_ports with
    | [||] -> Time.add (Time.add t0 latency) dur
    | ps ->
      let start = E.Sync.Resource.book_many ps ~duration:dur in
      Time.add (Time.add start latency) dur
  in
  t.total_bytes <- t.total_bytes + bytes;
  t.total_transfers <- t.total_transfers + 1;
  (match t.obs with
  | None -> ()
  | Some o ->
    Mx.Counter.incr o.m_transfers;
    Mx.Counter.add o.m_bytes bytes;
    let dur_ns = Time.to_ns dur in
    Array.iter
      (fun pid ->
        Mx.Counter.add o.m_port_bytes.(pid) bytes;
        Mx.Counter.add o.m_port_busy.(pid) dur_ns)
      e.e_pids);
  wait (Time.sub finish t0) (fun () ->
      E.Engine.log_comm t.eng ~since:t0;
      (match (trace_lane, E.Engine.trace t.eng) with
      | Some lane, Some tr ->
        E.Trace.add tr ~lane ~label ~kind:E.Trace.Communication ~t0 ~t1:(E.Engine.now t.eng)
      | None, _ | _, None -> ());
      k ())

let transfer t ~src ~dst ~initiator ~bytes ?trace_lane ?label () =
  transfer_steps t ~src ~dst ~initiator ~bytes ?trace_lane ?label
    ~wait:(fun d k ->
      E.Engine.delay t.eng d;
      k ())
    ignore

let bytes_moved t = t.total_bytes
let transfers t = t.total_transfers

let pairs_resolved t =
  let c = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some row -> Array.iter (function Some _ -> incr c | None -> ()) row)
    t.rows;
  !c

let port_busy t ~gpu =
  if gpu < 0 || gpu >= t.n then invalid_arg "Interconnect.port_busy: no such GPU";
  ( E.Sync.Resource.busy t.ports.(M.Topology.gpu_egress_port t.topo gpu),
    E.Sync.Resource.busy t.ports.(M.Topology.gpu_ingress_port t.topo gpu) )
