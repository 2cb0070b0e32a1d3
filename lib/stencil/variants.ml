module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Collective = Cpufree_comm.Collective
module P2p_copy = Cpufree_comm.P2p
module Proto = Cpufree_core.Signal_proto
module Specialize = Cpufree_core.Specialize
module Persistent = Cpufree_core.Persistent
module Time = E.Time

type kind = Copy | Overlap | P2p | Nvshmem | Cpu_free | Perks | Cpu_free_multi

let all = [ Copy; Overlap; P2p; Nvshmem; Cpu_free; Perks ]
let extended = all @ [ Cpu_free_multi ]

let name = function
  | Copy -> "baseline-copy"
  | Overlap -> "baseline-overlap"
  | P2p -> "baseline-p2p"
  | Nvshmem -> "baseline-nvshmem"
  | Cpu_free -> "cpu-free"
  | Perks -> "cpu-free-perks"
  | Cpu_free_multi -> "cpu-free-2kernel"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) extended

type built = {
  program : G.Runtime.ctx -> unit;
  final : unit -> G.Buffer.t array option;
  progress : int array;
}

(* One side of a PE's slab: the owned boundary plane next to a halo and,
   unless the side is the domain edge, the neighbour whose halo it feeds.
   Every halo exchange and every persistent comm role walks this table. *)
type feed = { peer : int; halo_off : int  (* where the plane lands in the peer's storage *) }

type side = {
  dir : Proto.dir;
  plane : int;  (* the owned boundary plane *)
  own_off : int;  (* its storage offset *)
  feed : feed option;
}

let halo_table slabs pe =
  let slab = slabs.(pe) in
  let feed peer halo_off =
    if peer < 0 || peer >= Array.length slabs then None
    else Some { peer; halo_off = halo_off slabs.(peer) }
  in
  [|
    { dir = Proto.Up; plane = 1; own_off = Slab.top_own_off slab;
      feed = feed (pe - 1) Slab.bottom_halo_off };
    { dir = Proto.Down; plane = slab.Slab.planes; own_off = Slab.bottom_own_off slab;
      feed = feed (pe + 1) Slab.top_halo_off };
  |]

(* Shared per-run state: slab geometry and halo tables, the double-buffered
   symmetric domain allocation, and the halo signaling protocol. *)
type state = {
  problem : Problem.t;
  nv : Nv.t;
  proto : Proto.t;
  coll : Collective.t;
  slabs : Slab.t array;
  halo : side array array;  (* per PE: its Up side, then its Down side *)
  sym_a : Nv.sym;
  sym_b : Nv.sym;
  host_scratch : G.Buffer.t array;  (* 1-element D2H landing zone per rank *)
  progress : int array;  (* last fully completed iteration per PE *)
}

let setup problem ctx ~progress =
  let n = G.Runtime.num_gpus ctx in
  let slabs = Array.init n (fun pe -> Slab.make problem ~n_pes:n ~pe) in
  let nv = Nv.init ctx in
  (* Chunks may differ by one plane; the symmetric allocation is sized for
     the largest and each slab uses its own prefix. *)
  let max_elems = Array.fold_left (fun acc s -> Stdlib.max acc (Slab.storage_elems s)) 0 slabs in
  let phantom = not problem.Problem.backed in
  let sym_a = Nv.sym_malloc nv ~label:"a" ~phantom max_elems in
  let sym_b = Nv.sym_malloc nv ~label:"a_new" ~phantom max_elems in
  Array.iter
    (fun s ->
      Slab.init_buffer s (Nv.local sym_a ~pe:s.Slab.pe);
      Slab.init_buffer s (Nv.local sym_b ~pe:s.Slab.pe))
    slabs;
  {
    problem;
    nv;
    proto = Proto.create nv ~label:"halo";
    coll = Collective.create nv ~label:"norm";
    slabs;
    halo = Array.init n (halo_table slabs);
    sym_a;
    sym_b;
    host_scratch =
      Array.init n (fun pe ->
          G.Buffer.create ~device:G.Buffer.host_device ~label:(Printf.sprintf "norm%d" pe) 1);
    progress;
  }

(* Progress is recorded as each PE finishes an iteration, so an aborted chaos
   run can still report how far every rank got (graceful degradation). *)
let tick st ~pe ~t = st.progress.(pe) <- t

(* Iteration t (1-based) reads the parity-t source and writes the other
   buffer; roles derive buffers from t so no cross-process swap is needed. *)
let src_sym st t = if t land 1 = 1 then st.sym_a else st.sym_b
let dst_sym st t = if t land 1 = 1 then st.sym_b else st.sym_a
let final_sym st = src_sym st (st.problem.Problem.iterations + 1)
let src_buf st ~pe t = Nv.local (src_sym st t) ~pe
let dst_buf st ~pe t = Nv.local (dst_sym st t) ~pe

let kernel_cost st ctx ~elems ~fraction ~efficiency ~bytes_per_elem =
  if (not st.problem.Problem.compute) || elems = 0 then Time.zero
  else
    G.Kernel.memory_bound_time (G.Runtime.arch ctx) ~elems ~bytes_per_elem
      ~sm_fraction:fraction ~efficiency

let stencil_bpe = G.Kernel.stencil_bytes_per_elem ()

let apply st ~pe ~t ~p0 ~p1 =
  if p1 >= p0 then
    Compute.apply st.problem.Problem.dims ~src:(src_buf st ~pe t) ~dst:(dst_buf st ~pe t) ~p0
      ~p1

let apply_planes st ~pe ~t planes = List.iter (fun p -> apply st ~pe ~t ~p0:p ~p1:p) planes

let apply_inner st ~pe ~t =
  match Slab.inner_planes st.slabs.(pe) with
  | None -> ()
  | Some (a, b) -> apply st ~pe ~t ~p0:a ~p1:b

(* ------------------------------------------------------------------ *)
(* Halo exchange                                                       *)
(* ------------------------------------------------------------------ *)

(* How a fresh boundary plane reaches the neighbour's halo: a host-issued
   cudaMemcpyAsync in a stream (Copy/Overlap), an in-kernel direct peer
   store (P2P), or an NVSHMEM put+signal (§4.1.1). *)
type transport = Memcpy of G.Stream.t | Peer_store | Put_signal

(* Send side [side]'s boundary plane of iteration [t]; nothing at the edge. *)
let send st ctx transport ~pe ~t side =
  match side.feed with
  | None -> ()
  | Some { peer; halo_off } -> (
    let src = dst_buf st ~pe t and len = st.slabs.(pe).Slab.plane in
    match transport with
    | Memcpy stream ->
      G.Runtime.memcpy_async ctx ~stream ~src ~src_pos:side.own_off ~dst:(dst_buf st ~pe:peer t)
        ~dst_pos:halo_off ~len
    | Peer_store ->
      P2p_copy.copy ctx ~from_dev:pe ~src ~src_pos:side.own_off ~dst:(dst_buf st ~pe:peer t)
        ~dst_pos:halo_off ~len
    | Put_signal ->
      Proto.put_boundary st.proto ~from_pe:pe ~dir:side.dir ~src ~src_pos:side.own_off
        ~dst:(dst_sym st t) ~dst_pos:halo_off ~len ~iter:t)

(* Both boundary planes, Up before Down. *)
let exchange st ctx transport ~pe ~t =
  let sides = st.halo.(pe) in
  for i = 0 to Array.length sides - 1 do
    send st ctx transport ~pe ~t sides.(i)
  done

(* Wait until both inbound halos of iteration [t] have arrived. *)
let wait_halos st ~pe ~t =
  let sides = st.halo.(pe) in
  for i = 0 to Array.length sides - 1 do
    Proto.wait_halo st.proto ~pe ~dir:sides.(i).dir ~iter:t
  done

(* ------------------------------------------------------------------ *)
(* Residual-norm checks                                                *)
(* ------------------------------------------------------------------ *)

let norm_due st t =
  match st.problem.Problem.norm_every with Some k -> t mod k = 0 | None -> false

(* A kernel over the whole owned domain. *)
let owned_cost st ctx ~pe ~fraction ~bytes_per_elem =
  let slab = st.slabs.(pe) in
  kernel_cost st ctx ~elems:(slab.Slab.planes * slab.Slab.plane) ~fraction ~efficiency:1.0
    ~bytes_per_elem

let norm_bpe = float_of_int G.Buffer.elem_bytes

(* The NVIDIA samples' convergence check, CPU-controlled style: a reduction
   kernel over the owned domain, a device-to-host copy of the partial norm,
   and a host allreduce across ranks. *)
let host_norm_check st ctx ~stream ~barrier ~pe ~t =
  if norm_due st t then begin
    let cost = owned_cost st ctx ~pe ~fraction:1.0 ~bytes_per_elem:norm_bpe in
    G.Runtime.launch ctx ~stream ~name:"norm" ~cost (fun () -> ());
    G.Runtime.memcpy_async ctx ~stream ~src:(dst_buf st ~pe t) ~src_pos:0
      ~dst:st.host_scratch.(pe) ~dst_pos:0 ~len:1;
    G.Runtime.stream_synchronize ctx stream;
    (* MPI_Allreduce over one float: message latency plus rank convergence. *)
    E.Engine.delay (G.Runtime.engine ctx) (G.Runtime.arch ctx).G.Arch.mpi_overhead;
    G.Host.barrier_wait ctx barrier
  end

(* The CPU-Free counterpart: the local reduction and the cross-PE sum both
   run on device, with no host involvement. *)
let device_norm_check st ctx ~pe ~t ~fraction =
  if norm_due st t then begin
    let cost = owned_cost st ctx ~pe ~fraction ~bytes_per_elem:norm_bpe in
    E.Engine.delay (G.Runtime.engine ctx) (G.Runtime.scaled_cost ctx ~gpu:pe cost);
    let (_ : float) = Collective.allreduce_sum st.coll ~pe 0.0 in
    ()
  end

(* ------------------------------------------------------------------ *)
(* CPU-controlled variants: one host-driven loop                       *)
(* ------------------------------------------------------------------ *)

(* Each PE's host thread creates its streams (the first also carries the
   norm check), builds its per-iteration body once, and runs it every
   iteration. Host-synchronized baselines then meet at a host barrier; a
   [signaled] baseline's PEs order their iterations by device signals alone
   and fence their puts once at the end instead. *)
let host_driven st ctx ~name ~streams ~signaled body =
  let barrier = G.Host.barrier_create ctx ~parties:(G.Runtime.num_gpus ctx) in
  G.Host.parallel_join ctx ~name (fun pe ->
      let eng = G.Runtime.engine ctx in
      let dev = G.Runtime.device ctx pe in
      let streams = Array.map (fun name -> G.Stream.create eng ~dev ~name) streams in
      let iteration = body ~pe streams in
      for t = 1 to st.problem.Problem.iterations do
        iteration t;
        host_norm_check st ctx ~stream:streams.(0) ~barrier ~pe ~t;
        if not signaled then G.Host.barrier_wait ctx barrier;
        tick st ~pe ~t
      done;
      if signaled then Nv.quiet st.nv ~pe)

let whole_cost st ctx ~pe = owned_cost st ctx ~pe ~fraction:1.0 ~bytes_per_elem:stencil_bpe
let apply_whole st ~pe ~t = apply st ~pe ~t ~p0:1 ~p1:st.slabs.(pe).Slab.planes

let run_copy st ctx =
  host_driven st ctx ~name:"copy" ~streams:[| "s0" |] ~signaled:false (fun ~pe streams ->
      let stream = streams.(0) in
      let memcpy = Memcpy stream and cost = whole_cost st ctx ~pe in
      fun t ->
        G.Runtime.launch ctx ~stream ~name:"jacobi" ~cost (fun () -> apply_whole st ~pe ~t);
        exchange st ctx memcpy ~pe ~t;
        G.Runtime.stream_synchronize ctx stream)

(* The inner kernel in a comp stream concurrent with the boundary work in a
   comm stream; [comm_work ~pe ~comm ~cost ~planes] builds the comm
   stream's per-iteration work, which is where Overlap and P2P differ. *)
let run_two_stream st ctx ~name comm_work =
  host_driven st ctx ~name ~streams:[| "comp"; "comm" |] ~signaled:false (fun ~pe streams ->
      let comp = streams.(0) and comm = streams.(1) in
      let slab = st.slabs.(pe) in
      let planes = Slab.boundary_planes slab in
      (* Discrete kernels are not co-residency-limited: the hardware scheduler
         time-shares SMs between the two concurrent kernels, so the small
         boundary kernel effectively sees about half the device while the
         inner kernel retains full throughput once it drains. *)
      let boundary_cost =
        kernel_cost st ctx
          ~elems:(List.length planes * slab.Slab.plane)
          ~fraction:0.5 ~efficiency:1.0 ~bytes_per_elem:stencil_bpe
      in
      let inner_cost =
        kernel_cost st ctx ~elems:(Slab.inner_elems slab) ~fraction:1.0 ~efficiency:1.0
          ~bytes_per_elem:stencil_bpe
      in
      let comm_work = comm_work ~pe ~comm ~cost:boundary_cost ~planes in
      fun t ->
        G.Runtime.launch ctx ~stream:comp ~name:"inner" ~cost:inner_cost (fun () ->
            apply_inner st ~pe ~t);
        comm_work t;
        G.Runtime.stream_synchronize ctx comm;
        G.Runtime.stream_synchronize ctx comp)

(* Boundary kernel, then host-issued halo copies behind it. *)
let run_overlap st ctx =
  run_two_stream st ctx ~name:"overlap" (fun ~pe ~comm ~cost ~planes ->
      let memcpy = Memcpy comm in
      fun t ->
        G.Runtime.launch ctx ~stream:comm ~name:"boundary" ~cost (fun () ->
            apply_planes st ~pe ~t planes);
        exchange st ctx memcpy ~pe ~t)

(* The boundary kernel stores its planes straight into the neighbours. *)
let run_p2p st ctx =
  run_two_stream st ctx ~name:"p2p" (fun ~pe ~comm ~cost ~planes t ->
      G.Runtime.launch ctx ~stream:comm ~name:"boundary+p2p" ~cost (fun () ->
          apply_planes st ~pe ~t planes;
          exchange st ctx Peer_store ~pe ~t))

let run_nvshmem st ctx =
  host_driven st ctx ~name:"nvshmem" ~streams:[| "s0" |] ~signaled:true (fun ~pe streams ->
      let stream = streams.(0) and cost = whole_cost st ctx ~pe in
      fun t ->
        (* Dedicated neighbour-sync kernel: wait for this iteration's inbound
           halos so the compute kernel can read them. *)
        G.Runtime.launch ctx ~stream ~name:"sync_kernel" (fun () -> wait_halos st ~pe ~t);
        G.Runtime.launch ctx ~stream ~name:"jacobi+put" ~cost (fun () ->
            apply_whole st ~pe ~t;
            exchange st ctx Put_signal ~pe ~t);
        (* Peer synchronization is device-side, but the NVIDIA sample this
           baseline reproduces still synchronizes its stream every iteration
           (residual-norm check) — host control is reduced, not gone. *)
        G.Runtime.stream_synchronize ctx stream)

(* ------------------------------------------------------------------ *)
(* CPU-Free variants (§4): persistent kernels, specialized TB roles    *)
(* ------------------------------------------------------------------ *)

(* Device shares of the thread-block roles on one PE (§4.1.2): the work
   split between the boundary and inner groups, and each group's cost per
   iteration. Role costs are charged with direct delays (no
   {!G.Runtime.launch} in the loop), so straggler scaling applies here. *)
type role_costs = {
  split : Specialize.split;
  boundary : Time.t;  (* one boundary plane *)
  inner : Time.t;
  inner_fraction : float;
}

let role_costs st ctx ~pe ~perks =
  let slab = st.slabs.(pe) in
  let arch = G.Runtime.arch ctx in
  let total_blocks = G.Arch.co_resident_blocks arch in
  let split =
    if Array.length st.slabs = 1 then Specialize.no_boundary ~total_blocks
    else
      Specialize.split ~total_blocks ~boundary_elems:(Slab.boundary_elems slab)
        ~inner_elems:(Slab.inner_elems slab)
  in
  let boundary_fraction =
    if split.Specialize.boundary_blocks = 0 then 1.0 /. float_of_int split.Specialize.total_blocks
    else Specialize.boundary_fraction split
  in
  let inner_fraction = Stdlib.max (Specialize.inner_fraction split) 0.01 in
  let inner_elems = Slab.inner_elems slab in
  (* PERKS caches the domain on chip: fewer bytes per element and no
     software-tiling penalty. *)
  let inner_bpe, inner_efficiency =
    if perks then (G.Kernel.perks_bytes_per_elem arch ~elems:inner_elems, 1.0)
    else (stencil_bpe, G.Kernel.tiling_efficiency arch ~elems:inner_elems ~threads:1024)
  in
  let boundary =
    G.Runtime.scaled_cost ctx ~gpu:pe
      (kernel_cost st ctx ~elems:slab.Slab.plane ~fraction:boundary_fraction ~efficiency:1.0
         ~bytes_per_elem:stencil_bpe)
  in
  let inner =
    G.Runtime.scaled_cost ctx ~gpu:pe
      (kernel_cost st ctx ~elems:inner_elems ~fraction:inner_fraction
         ~efficiency:inner_efficiency ~bytes_per_elem:inner_bpe)
  in
  { split; boundary; inner; inner_fraction }

(* The thread-block roles of one PE: a comm role per boundary plane — wait
   for the inbound halo, compute the plane, put it with a signal — and the
   inner role, which also checks the norm and records progress. After its
   grid barrier of iteration [t], a comm role runs [comm_sync dir t] and the
   inner role [inner_sync t]: the two-kernel design's cross-kernel flags. *)
let roles st ctx ~pe costs ~comm_sync ~inner_sync =
  let eng = G.Runtime.engine ctx in
  let dev = G.Runtime.device ctx pe in
  let iterations = st.problem.Problem.iterations in
  let boundary_lane = lazy (G.Device.lane dev "boundary") in
  let comm_role side grid =
    for t = 1 to iterations do
      Proto.wait_halo st.proto ~pe ~dir:side.dir ~iter:t;
      let t0 = E.Engine.now eng in
      E.Engine.delay eng costs.boundary;
      apply st ~pe ~t ~p0:side.plane ~p1:side.plane;
      E.Engine.log_compute eng ~since:t0 ~lane:boundary_lane ~label:"boundary";
      send st ctx Put_signal ~pe ~t side;
      G.Coop.sync grid;
      comm_sync side.dir t
    done
  in
  let inner_lane = lazy (G.Device.lane dev "inner") in
  let inner_role grid =
    for t = 1 to iterations do
      let t0 = E.Engine.now eng in
      E.Engine.delay eng costs.inner;
      apply_inner st ~pe ~t;
      E.Engine.log_compute eng ~since:t0 ~lane:inner_lane ~label:"inner";
      G.Coop.sync grid;
      inner_sync t;
      device_norm_check st ctx ~pe ~t ~fraction:costs.inner_fraction;
      tick st ~pe ~t
    done
  in
  (* A one-plane slab (one GPU only: on several, persistent variants need
     two planes per PE) has a single boundary plane and so one comm role. *)
  let sides = st.halo.(pe) in
  let sides = if st.slabs.(pe).Slab.planes = 1 then [ sides.(0) ] else Array.to_list sides in
  let comm_name side = match side.dir with Proto.Up -> "comm_top" | Proto.Down -> "comm_bottom" in
  (List.map (fun side -> (comm_name side, comm_role side)) sides, ("inner", inner_role))

let run_persistent st ctx ~label ~perks =
  let roles pe =
    let costs = role_costs st ctx ~pe ~perks in
    let comm, inner =
      roles st ctx ~pe costs ~comm_sync:(fun _ _ -> ()) ~inner_sync:(fun _ -> ())
    in
    comm @ [ inner ]
  in
  Persistent.run_all ctx ~name:label ~blocks:(Persistent.max_blocks ctx) ~threads_per_block:1024
    ~roles;
  (* The persistent kernels have exited; flush any trailing deliveries. *)
  G.Host.parallel_join ctx ~name:(label ^ ".drain") (fun pe -> Nv.quiet st.nv ~pe)

(* The alternative design of §4: instead of specializing thread blocks
   inside one kernel, run two co-resident persistent kernels per device —
   one managing the boundary/communication, one the inner domain — in
   separate streams, synchronized once per iteration by busy-waiting on
   flags in local device memory. The paper reports no significant
   performance difference versus the single-kernel design; keeping both lets
   the benchmark suite check that claim. *)
let run_cpu_free_multi st ctx =
  let eng = G.Runtime.engine ctx in
  let n = G.Runtime.num_gpus ctx in
  (* Local-memory iteration flags, one pair per device. *)
  let flags what =
    Array.init n (fun pe -> E.Sync.Flag.create ~name:(Printf.sprintf "gpu%d.%s" pe what) eng 0)
  in
  let comm_done = flags "comm_done" in
  let comp_done = flags "comp_done" in
  let local_flag_latency = Time.ns 300 in
  let cross_kernel_sync ~mine ~other t =
    E.Sync.Flag.set mine t;
    E.Sync.Flag.wait_ge other t;
    E.Engine.delay eng local_flag_latency
  in
  G.Host.parallel_join ctx ~name:"cpu_free_2k" (fun pe ->
      let dev = G.Runtime.device ctx pe in
      let costs = role_costs st ctx ~pe ~perks:false in
      (* The comm kernel's leader block (its top role) publishes completion
         and spins on the compute kernel's flag. *)
      let comm_sync dir t =
        match dir with
        | Proto.Up -> cross_kernel_sync ~mine:comm_done.(pe) ~other:comp_done.(pe) t
        | Proto.Down -> E.Sync.Flag.wait_ge comp_done.(pe) t
      in
      let comm_roles, inner =
        roles st ctx ~pe costs ~comm_sync
          ~inner_sync:(cross_kernel_sync ~mine:comp_done.(pe) ~other:comm_done.(pe))
      in
      (* Two cooperative kernels sharing the device: split the co-resident
         block budget between them. *)
      let split = costs.split in
      let comm_blocks = Stdlib.max 2 (2 * split.Specialize.boundary_blocks) in
      let comp_blocks = Stdlib.max 1 (split.Specialize.total_blocks - comm_blocks) in
      let fin_comm =
        G.Runtime.launch_cooperative ctx ~dev ~name:"comm_kernel" ~blocks:comm_blocks
          ~threads_per_block:1024 ~roles:comm_roles
      in
      let fin_comp =
        G.Runtime.launch_cooperative ctx ~dev ~name:"comp_kernel" ~blocks:comp_blocks
          ~threads_per_block:1024 ~roles:[ inner ]
      in
      G.Runtime.join_kernel ctx ~roles:(List.length comm_roles) fin_comm;
      G.Runtime.join_kernel ctx ~roles:1 fin_comp;
      Nv.quiet st.nv ~pe)

(* ------------------------------------------------------------------ *)

let feasible kind problem ~gpus =
  let planes = Problem.planes_global problem in
  let persistent = match kind with Cpu_free | Perks | Cpu_free_multi -> true | _ -> false in
  if gpus <= 0 then Error "stencil: need at least one GPU"
  else if planes < gpus then
    Error
      (Printf.sprintf "stencil: %d planes cannot be split over %d GPUs (fewer planes than PEs)"
         planes gpus)
  else if persistent && gpus > 1 && planes / gpus < 2 then
    Error
      (Printf.sprintf
         "%s stencil: %d planes over %d GPUs leaves a PE with one plane; each PE needs at least \
          two (top and bottom boundary blocks are distinct thread-block groups)"
         (name kind) planes gpus)
  else Ok ()

let build kind problem ~gpus =
  (match feasible kind problem ~gpus with Ok () -> () | Error e -> invalid_arg e);
  let store = ref None in
  let progress = Array.make gpus 0 in
  let program ctx =
    let st = setup problem ctx ~progress in
    (match kind with
    | Copy -> run_copy st ctx
    | Overlap -> run_overlap st ctx
    | P2p -> run_p2p st ctx
    | Nvshmem -> run_nvshmem st ctx
    | Cpu_free -> run_persistent st ctx ~label:"cpu_free" ~perks:false
    | Perks -> run_persistent st ctx ~label:"perks" ~perks:true
    | Cpu_free_multi -> run_cpu_free_multi st ctx);
    let sym = final_sym st in
    store := Some (Array.init gpus (fun pe -> Nv.local sym ~pe))
  in
  { program; final = (fun () -> !store); progress }
