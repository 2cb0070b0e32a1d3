module E = Cpufree_engine
module M = Cpufree_machine
module F = Cpufree_fault.Fault
module Mx = Cpufree_obs.Metrics
module Time = E.Time

type endpoint = Gpu of int | Host
type initiator = By_host | By_device

(* The fabric is a thin façade over a routed {!Cpufree_machine.Topology}
   graph: the first transfer between an endpoint pair resolves its route
   into a (wire latency, bottleneck inverse bandwidth, port ids) entry,
   the topology's route summary, and every later transfer on that pair —
   millions per stencil sweep — does no routing, no float division and no
   repeated [Time] arithmetic, just array reads. Only pairs that actually
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

(* One resolved endpoint pair: its wire latency (initiator setup added
   per call), bottleneck inverse bandwidth and port ids in travel order. *)
type entry = M.Topology.route_summary

(* The memo's empty slot, told apart by physical equality. *)
let unresolved = { M.Topology.r_latency = Time.zero; r_ns_per_byte = 0.0; r_ports = [||] }

type fail_action = Fail_link of string * string | Fail_switch of string

type t = {
  eng : E.Engine.t;
  arch : Arch.t;
  n : int;
  topo : M.Topology.t;
  busy : Time.t array; (* by port id: when the port's last booking ends *)
  setup : Time.t array; (* indexed by initiator *)
  rows : entry array array array; (* see [slots] *)
  faults : F.plan option;
  obs : instr option;
  gpus : endpoint array; (* [Gpu g] at [g], made once *)
  mutable total_bytes : int;
  mutable total_transfers : int;
  mutable epoch : int; (* topology route_epoch the memo was filled under *)
  mutable pending_fails : (Time.t * fail_action) list; (* ascending by time *)
}

let init_idx = function By_host -> 0 | By_device -> 1

(* Endpoint index for the memo tables: GPU [g] is [g], the host is [n].
   [vertex topo n i ~peer] is the vertex of index [i] talking to index
   [peer]. On a multi-node machine "the host" is relative — it resolves to
   the host of the peer GPU's node (a host-staged copy talks to the local
   host), and host-to-host means node 0 talking to itself. *)
let vertex topo n i ~peer =
  if i < n then M.Topology.gpu_vertex topo i
  else if peer < n then M.Topology.host_vertex topo ~node:(M.Topology.node_of_gpu topo peer)
  else M.Topology.host_vertex topo ~node:0

let create ?(topology = M.Topology.Hgx) ?faults ?metrics eng ~arch ~num_gpus =
  if num_gpus <= 0 then invalid_arg "Interconnect.create: need at least one GPU";
  let topo = M.Topology.instantiate topology ~profile:(Arch.fabric_profile arch) ~gpus:num_gpus in
  let n = num_gpus in
  let m = n + 1 in
  let obs =
    match metrics with
    | None -> None
    | Some reg ->
      (* Every port gets its counters here, booked or not: a run's
         metrics list each port, idle ones at 0. *)
      let port_list = M.Topology.ports topo in
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
  {
    eng;
    arch;
    n;
    topo;
    busy = Array.make (M.Topology.num_ports topo) Time.zero;
    setup = [| arch.Arch.host_initiated_latency; arch.Arch.gpu_initiated_latency |];
    rows = Array.make m [||];
    faults;
    obs;
    gpus = Array.init n (fun g -> Gpu g);
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
let gpu t g = if g >= 0 && g < t.n then t.gpus.(g) else Gpu g
let topology t = t.topo
let num_nodes t = M.Topology.num_nodes t.topo

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
  (match t.pending_fails with [] -> () | _ :: _ -> enact_failures t);
  let epoch = M.Topology.route_epoch t.topo in
  if t.epoch <> epoch then begin
    Array.fill t.rows 0 (Array.length t.rows) [||];
    t.epoch <- epoch
  end

(* The pair memo keeps source [si]'s entries in chunks of [chunk]
   destinations (the last one shorter), each made on its source's first
   entry in it: a run pays for the pairs it resolves, not for a row of
   every destination per source (a tree allreduce at 256 GPUs resolves
   about two per source). *)
let chunk_bits = 5
let chunk = 1 lsl chunk_bits

(* The chunk holding [di] in source [si]'s row, made on first use. *)
let slots t ~si ~di =
  let row =
    match t.rows.(si) with
    | [||] ->
      let row = Array.make ((t.n lsr chunk_bits) + 1) [||] in
      t.rows.(si) <- row;
      row
    | row -> row
  in
  let c = di lsr chunk_bits in
  match row.(c) with
  | [||] ->
    let s = Array.make (min chunk (t.n + 1 - (c lsl chunk_bits))) unresolved in
    row.(c) <- s;
    s
  | s -> s

(* Resolve an endpoint pair's routing entry, filling the memo on first use. *)
let resolve t ~si ~di =
  sync_failures t;
  let slots = slots t ~si ~di and i = di land (chunk - 1) in
  let e = slots.(i) in
  if e != unresolved then e
  else begin
    let e =
      M.Topology.route_summary t.topo ~src:(vertex t.topo t.n si ~peer:di)
        ~dst:(vertex t.topo t.n di ~peer:si)
    in
    slots.(i) <- e;
    e
  end

let entry_for t ~src ~dst = resolve t ~si:(idx_of t src) ~di:(idx_of t dst)

let wire_latency t ~src ~dst =
  check_endpoint t src;
  check_endpoint t dst;
  (entry_for t ~src ~dst).r_latency

let min_gpu_wire_latency t =
  match M.Topology.min_gpu_pair_latency t.topo with Some l -> l | None -> t.arch.Arch.nvlink_latency

let path_latency t (e : entry) ~initiator = Time.add e.r_latency t.setup.(init_idx initiator)

let serialization_time (e : entry) ~bytes =
  if bytes = 0 then Time.zero else Time.scale (Time.ns bytes) e.r_ns_per_byte

(* Whether a transfer crosses node boundaries (and therefore rides a NIC). *)
let inter_node t ~src ~dst =
  match (src, dst) with
  | Gpu a, Gpu b -> M.Topology.node_of_gpu t.topo a <> M.Topology.node_of_gpu t.topo b
  | Gpu _, Host | Host, Gpu _ | Host, Host -> false

(* The fault plan's penalty on a path right now: the extra latency a NIC
   outage holds inter-node traffic for (until the outage interval ends) and
   the factor a link-flap window multiplies serialization by. No penalty
   without an active plan, so fault-free runs stay byte-identical. *)
let fault_penalty t ~src ~dst =
  match t.faults with
  | None -> (Time.zero, 1.0)
  | Some plan -> F.fabric_penalty plan ~now:(E.Engine.now t.eng) ~inter_node:(inter_node t ~src ~dst)

let fault_hold t ~src ~dst = fst (fault_penalty t ~src ~dst)

(* Occupy every port of [pids] for [duration], starting at the later of
   now and the time the last of them frees up; return that start. *)
let book t pids ~duration =
  let start = ref (E.Engine.now t.eng) in
  for k = 0 to Array.length pids - 1 do
    start := Time.max !start t.busy.(pids.(k))
  done;
  let until = Time.add !start duration in
  for k = 0 to Array.length pids - 1 do
    t.busy.(pids.(k)) <- until
  done;
  !start

(* Book latency and serialization on every port of the route (plus any
   fault penalty) and count the transfer; return how long until the last
   byte is in. *)
let start_transfer t ~src ~dst ~initiator ~bytes =
  check_endpoint t src;
  check_endpoint t dst;
  if bytes < 0 then invalid_arg "Interconnect.transfer: negative size";
  let e = entry_for t ~src ~dst in
  let latency = path_latency t e ~initiator in
  let dur = serialization_time e ~bytes in
  let latency, dur =
    match t.faults with
    | None -> (latency, dur)
    | Some _ ->
      let extra, mult = fault_penalty t ~src ~dst in
      (Time.add latency extra, if Float.equal mult 1.0 then dur else Time.scale dur mult)
  in
  let t0 = E.Engine.now t.eng in
  let finish = Time.add (Time.add (book t e.r_ports ~duration:dur) latency) dur in
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
      e.r_ports);
  Time.sub finish t0

let transfer_landed t ~since ?trace_lane ~label () =
  E.Engine.log_comm t.eng ~since;
  match (trace_lane, E.Engine.trace t.eng) with
  | Some lane, Some tr ->
    E.Trace.add tr ~lane ~label ~kind:E.Trace.Communication ~t0:since ~t1:(E.Engine.now t.eng)
  | None, _ | _, None -> ()

let transfer_steps t ~src ~dst ~initiator ~bytes ?trace_lane ?(label = "xfer") k =
  let t0 = E.Engine.now t.eng in
  E.Engine.after t.eng (start_transfer t ~src ~dst ~initiator ~bytes) (fun () ->
      transfer_landed t ~since:t0 ?trace_lane ~label ();
      k ())

let bytes_moved t = t.total_bytes
let transfers t = t.total_transfers

let pairs_resolved t =
  let c = ref 0 in
  Array.iter (Array.iter (Array.iter (fun e -> if e != unresolved then incr c))) t.rows;
  !c

