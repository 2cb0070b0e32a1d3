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
  program : Cpufree_core.Measure.program;
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
(* Step programs                                                       *)
(* ------------------------------------------------------------------ *)

(* Every host rank and every thread-block role is a step program
   ({!E.Program}) whose state is its iteration counter [it]: the loop is a
   {!E.Program.loop} and the norm check a guard. A kernel body is given its
   continuation, so it may wait. *)
open E.Program

(* [body] once per iteration, [it] running from 1 to the problem's count. *)
let iterate st it body =
  let iterations = st.problem.Problem.iterations in
  loop ~init:(fun () -> it := 1) ~continue:(fun it -> !it <= iterations) ~update:(fun () -> incr it)
    body

(* Run [code] over counter [it] as steps of the calling process. *)
let run_code ctx it code k = run (G.Runtime.engine ctx) (Array.of_list code) it k

(* ------------------------------------------------------------------ *)
(* Halo exchange                                                       *)
(* ------------------------------------------------------------------ *)

(* How a fresh boundary plane reaches the neighbour's halo: a host-issued
   cudaMemcpyAsync in a stream (Copy/Overlap), an in-kernel direct peer
   store (P2P), or an NVSHMEM put+signal (§4.1.1). *)
type transport = Memcpy of G.Stream.t | Peer_store | Put_signal

(* Send side [side]'s boundary plane of iteration [t]; nothing at the edge. *)
let send st ctx transport ~pe ~t side k =
  match side.feed with
  | None -> k ()
  | Some { peer; halo_off } -> (
    let src = dst_buf st ~pe t and len = st.slabs.(pe).Slab.plane in
    match transport with
    | Memcpy stream ->
      G.Runtime.memcpy_async_k ctx ~stream ~src ~src_pos:side.own_off
        ~dst:(dst_buf st ~pe:peer t) ~dst_pos:halo_off ~len k
    | Peer_store ->
      P2p_copy.copy_k ctx ~from_dev:pe ~src ~src_pos:side.own_off ~dst:(dst_buf st ~pe:peer t)
        ~dst_pos:halo_off ~len k
    | Put_signal ->
      Proto.put_boundary_k st.proto ~from_pe:pe ~dir:side.dir ~src ~src_pos:side.own_off
        ~dst:(dst_sym st t) ~dst_pos:halo_off ~len ~iter:t k)

(* Both boundary planes, Up before Down. *)
let exchange st ctx transport ~pe ~t k =
  let sides = st.halo.(pe) in
  send st ctx transport ~pe ~t sides.(0) (fun () -> send st ctx transport ~pe ~t sides.(1) k)

(* Continue once both inbound halos of iteration [t] have arrived. *)
let wait_halos st ~pe ~t k =
  let sides = st.halo.(pe) in
  Proto.wait_halo_k st.proto ~pe ~dir:sides.(0).dir ~iter:t (fun () ->
      Proto.wait_halo_k st.proto ~pe ~dir:sides.(1).dir ~iter:t k)

(* A kernel launch whose body reads iteration [t] as it was at launch. *)
let launch ctx ~stream ~name ~cost it body =
  Wait
    (fun k ->
      let t = !it in
      G.Runtime.launch_k ctx ~stream ~name ~cost (body t) k)

(* ------------------------------------------------------------------ *)
(* Residual-norm checks                                                *)
(* ------------------------------------------------------------------ *)

let norm_due st t =
  match st.problem.Problem.norm_every with Some k -> t mod k = 0 | None -> false

(* [check] only in the iterations that check the norm. *)
let when_norm_due st check = guard (fun it -> norm_due st !it) check

(* A kernel over the whole owned domain. *)
let owned_cost st ctx ~pe ~fraction ~bytes_per_elem =
  let slab = st.slabs.(pe) in
  kernel_cost st ctx ~elems:(slab.Slab.planes * slab.Slab.plane) ~fraction ~efficiency:1.0
    ~bytes_per_elem

let norm_bpe = float_of_int G.Buffer.elem_bytes

(* The NVIDIA samples' convergence check, CPU-controlled style: a reduction
   kernel over the owned domain, a device-to-host copy of the partial norm,
   and a host allreduce across ranks. *)
let host_norm_check st ctx ~stream ~barrier ~pe it =
  let cost = owned_cost st ctx ~pe ~fraction:1.0 ~bytes_per_elem:norm_bpe in
  when_norm_due st
    [
      Wait (G.Runtime.launch_k ctx ~stream ~name:"norm" ~cost (fun k -> k ()));
      Wait
        (fun k ->
          G.Runtime.memcpy_async_k ctx ~stream ~src:(dst_buf st ~pe !it) ~src_pos:0
            ~dst:st.host_scratch.(pe) ~dst_pos:0 ~len:1 k);
      Wait (G.Runtime.stream_synchronize_k ctx stream);
      (* MPI_Allreduce over one float: message latency plus rank convergence. *)
      After (fun _ -> (G.Runtime.arch ctx).G.Arch.mpi_overhead);
      Wait (G.Host.barrier_wait_k ctx barrier);
    ]

(* The CPU-Free counterpart: the local reduction and the cross-PE sum both
   run on device, with no host involvement. *)
let device_norm_check st ctx ~pe ~fraction =
  let cost = owned_cost st ctx ~pe ~fraction ~bytes_per_elem:norm_bpe in
  let cost = G.Runtime.scaled_cost ctx ~gpu:pe cost in
  when_norm_due st
    [
      After (fun _ -> cost);
      Wait (fun k -> Collective.allreduce_sum_k st.coll ~pe 0.0 (fun (_ : float) -> k ()));
    ]

(* ------------------------------------------------------------------ *)
(* CPU-controlled variants: one host-driven loop                       *)
(* ------------------------------------------------------------------ *)

(* Each PE's host thread creates its streams (the first also carries the
   norm check), lowers its per-iteration body once, and runs the loop as
   one step program. Host-synchronized baselines then meet at a host
   barrier; a [signaled] baseline's PEs order their iterations by device
   signals alone and fence their puts once at the end instead. *)
let host_driven st ctx ~name ~streams ~signaled body =
  let barrier = G.Host.barrier_create ctx ~parties:(G.Runtime.num_gpus ctx) in
  G.Host.parallel_join_k ctx ~name (fun pe ->
      let eng = G.Runtime.engine ctx in
      let dev = G.Runtime.device ctx pe in
      let streams = Array.map (fun name -> G.Stream.create eng ~dev ~name) streams in
      let it = ref 1 in
      let code =
        iterate st it
          (body ~pe it streams
          @ host_norm_check st ctx ~stream:streams.(0) ~barrier ~pe it
          @ (if signaled then [] else [ Wait (G.Host.barrier_wait_k ctx barrier) ])
          @ [ Do (fun () -> tick st ~pe ~t:!it) ])
        @ if signaled then [ Wait (Nv.quiet_k st.nv ~pe) ] else []
      in
      run_code ctx it code)

let whole_cost st ctx ~pe = owned_cost st ctx ~pe ~fraction:1.0 ~bytes_per_elem:stencil_bpe
let apply_whole st ~pe ~t = apply st ~pe ~t ~p0:1 ~p1:st.slabs.(pe).Slab.planes

let run_copy st ctx =
  host_driven st ctx ~name:"copy" ~streams:[| "s0" |] ~signaled:false (fun ~pe it streams ->
      let stream = streams.(0) in
      let memcpy = Memcpy stream and cost = whole_cost st ctx ~pe in
      [
        launch ctx ~stream ~name:"jacobi" ~cost it (fun t k ->
            apply_whole st ~pe ~t;
            k ());
        Wait (fun k -> exchange st ctx memcpy ~pe ~t:!it k);
        Wait (G.Runtime.stream_synchronize_k ctx stream);
      ])

(* The inner kernel in a comp stream concurrent with the boundary work in a
   comm stream; [comm_work ~pe it ~comm ~cost ~planes] lowers the comm
   stream's per-iteration work, which is where Overlap and P2P differ. *)
let run_two_stream st ctx ~name comm_work =
  host_driven st ctx ~name ~streams:[| "comp"; "comm" |] ~signaled:false (fun ~pe it streams ->
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
      (launch ctx ~stream:comp ~name:"inner" ~cost:inner_cost it (fun t k ->
           apply_inner st ~pe ~t;
           k ())
      :: comm_work ~pe it ~comm ~cost:boundary_cost ~planes)
      @ [
          Wait (G.Runtime.stream_synchronize_k ctx comm);
          Wait (G.Runtime.stream_synchronize_k ctx comp);
        ])

(* Boundary kernel, then host-issued halo copies behind it. *)
let run_overlap st ctx =
  run_two_stream st ctx ~name:"overlap" (fun ~pe it ~comm ~cost ~planes ->
      let memcpy = Memcpy comm in
      [
        launch ctx ~stream:comm ~name:"boundary" ~cost it (fun t k ->
            apply_planes st ~pe ~t planes;
            k ());
        Wait (fun k -> exchange st ctx memcpy ~pe ~t:!it k);
      ])

(* The boundary kernel stores its planes straight into the neighbours. *)
let run_p2p st ctx =
  run_two_stream st ctx ~name:"p2p" (fun ~pe it ~comm ~cost ~planes ->
      [
        launch ctx ~stream:comm ~name:"boundary+p2p" ~cost it (fun t k ->
            apply_planes st ~pe ~t planes;
            exchange st ctx Peer_store ~pe ~t k);
      ])

let run_nvshmem st ctx =
  host_driven st ctx ~name:"nvshmem" ~streams:[| "s0" |] ~signaled:true (fun ~pe it streams ->
      let stream = streams.(0) and cost = whole_cost st ctx ~pe in
      [
        (* Dedicated neighbour-sync kernel: wait for this iteration's inbound
           halos so the compute kernel can read them. *)
        launch ctx ~stream ~name:"sync_kernel" ~cost:Time.zero it (fun t -> wait_halos st ~pe ~t);
        launch ctx ~stream ~name:"jacobi+put" ~cost it (fun t k ->
            apply_whole st ~pe ~t;
            exchange st ctx Put_signal ~pe ~t k);
        (* Peer synchronization is device-side, but the NVIDIA sample this
           baseline reproduces still synchronizes its stream every iteration
           (residual-norm check) — host control is reduced, not gone. *)
        Wait (G.Runtime.stream_synchronize_k ctx stream);
      ])

(* ------------------------------------------------------------------ *)
(* CPU-Free variants (§4): persistent kernels, specialized TB roles    *)
(* ------------------------------------------------------------------ *)

(* Device shares of the thread-block roles on one PE (§4.1.2): the work
   split between the boundary and inner groups, and each group's cost per
   iteration. Role costs are charged with direct waits (no kernel launch
   in the loop), so straggler scaling applies here. *)
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
   grid barrier of an iteration, a comm role runs [comm_sync dir it] and
   the inner role [inner_sync it]: the two-kernel design's cross-kernel
   flags. Each role is a step program, started after its teardown delay. *)
let roles st ctx ~pe costs ~comm_sync ~inner_sync =
  let dev = G.Runtime.device ctx pe in
  (* The compute share of a role: [body] once [cost] is waited out. *)
  let compute lane label cost body = Compute { cost = (fun _ -> cost); body; lane; label } in
  let boundary_lane = lazy (G.Device.lane dev "boundary") in
  let comm_role side grid =
    let it = ref 1 in
    run_code ctx it
      (iterate st it
         (Wait (fun k -> Proto.wait_halo_k st.proto ~pe ~dir:side.dir ~iter:!it k)
         :: compute boundary_lane "boundary" costs.boundary (fun () ->
                apply st ~pe ~t:!it ~p0:side.plane ~p1:side.plane)
         :: Wait (fun k -> send st ctx Put_signal ~pe ~t:!it side k)
         :: Wait (G.Coop.sync_k grid)
         :: comm_sync side.dir it))
  in
  let inner_lane = lazy (G.Device.lane dev "inner") in
  let inner_role grid =
    let it = ref 1 in
    run_code ctx it
      (iterate st it
         (compute inner_lane "inner" costs.inner (fun () -> apply_inner st ~pe ~t:!it)
         :: Wait (G.Coop.sync_k grid)
         :: inner_sync it
         @ device_norm_check st ctx ~pe ~fraction:costs.inner_fraction
         @ [ Do (fun () -> tick st ~pe ~t:!it) ]))
  in
  (* A one-plane slab (one GPU only: on several, persistent variants need
     two planes per PE) has a single boundary plane and so one comm role. *)
  let sides = st.halo.(pe) in
  let sides = if st.slabs.(pe).Slab.planes = 1 then [ sides.(0) ] else Array.to_list sides in
  let comm_name side = match side.dir with Proto.Up -> "comm_top" | Proto.Down -> "comm_bottom" in
  (List.map (fun side -> (comm_name side, comm_role side)) sides, ("inner", inner_role))

let run_persistent st ctx ~label ~perks k =
  let roles pe =
    let costs = role_costs st ctx ~pe ~perks in
    let comm, inner = roles st ctx ~pe costs ~comm_sync:(fun _ _ -> []) ~inner_sync:(fun _ -> []) in
    comm @ [ inner ]
  in
  Persistent.run_all_k ctx ~name:label ~blocks:(Persistent.max_blocks ctx)
    ~threads_per_block:1024 ~roles (fun () ->
      (* The persistent kernels have exited; flush any trailing deliveries. *)
      G.Host.parallel_join_k ctx ~name:(label ^ ".drain") (fun pe -> Nv.quiet_k st.nv ~pe) k)

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
  let cross_kernel_sync ~mine ~other it =
    [
      Do (fun () -> E.Sync.Flag.set mine !it);
      Wait (fun k -> E.Sync.Flag.wait_ge_k other !it k);
      After (fun _ -> local_flag_latency);
    ]
  in
  G.Host.parallel_join_k ctx ~name:"cpu_free_2k" (fun pe k ->
      let dev = G.Runtime.device ctx pe in
      let costs = role_costs st ctx ~pe ~perks:false in
      (* The comm kernel's leader block (its top role) publishes completion
         and spins on the compute kernel's flag. *)
      let comm_sync dir it =
        match dir with
        | Proto.Up -> cross_kernel_sync ~mine:comm_done.(pe) ~other:comp_done.(pe) it
        | Proto.Down -> [ Wait (fun k -> E.Sync.Flag.wait_ge_k comp_done.(pe) !it k) ]
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
      G.Runtime.launch_cooperative_k ctx ~dev ~name:"comm_kernel" ~blocks:comm_blocks
        ~threads_per_block:1024 ~roles:comm_roles (fun fin_comm ->
          G.Runtime.launch_cooperative_k ctx ~dev ~name:"comp_kernel" ~blocks:comp_blocks
            ~threads_per_block:1024 ~roles:[ inner ] (fun fin_comp ->
              E.Sync.Flag.wait_ge_k fin_comm (List.length comm_roles) (fun () ->
                  E.Sync.Flag.wait_ge_k fin_comp 1 (fun () -> Nv.quiet_k st.nv ~pe k)))))

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
  let program ctx k =
    let st = setup problem ctx ~progress in
    let run =
      match kind with
      | Copy -> run_copy st ctx
      | Overlap -> run_overlap st ctx
      | P2p -> run_p2p st ctx
      | Nvshmem -> run_nvshmem st ctx
      | Cpu_free -> run_persistent st ctx ~label:"cpu_free" ~perks:false
      | Perks -> run_persistent st ctx ~label:"perks" ~perks:true
      | Cpu_free_multi -> run_cpu_free_multi st ctx
    in
    run (fun () ->
        let sym = final_sym st in
        store := Some (Array.init gpus (fun pe -> Nv.local sym ~pe));
        k ())
  in
  { program; final = (fun () -> !store); progress }
