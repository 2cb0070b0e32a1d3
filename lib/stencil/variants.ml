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
  progress : unit -> int array option;
}

(* Shared per-run state: slab geometry, the double-buffered symmetric domain
   allocation, and the halo signaling protocol. *)
type state = {
  problem : Problem.t;
  nv : Nv.t;
  proto : Proto.t;
  coll : Collective.t;
  slabs : Slab.t array;
  sym_a : Nv.sym;
  sym_b : Nv.sym;
  host_scratch : G.Buffer.t array;  (* 1-element D2H landing zone per rank *)
  progress : int array;  (* last fully completed iteration per PE *)
}

let setup problem ctx =
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
    sym_a;
    sym_b;
    host_scratch =
      Array.init n (fun pe ->
          G.Buffer.create ~device:G.Buffer.host_device ~label:(Printf.sprintf "norm%d" pe) 1);
    progress = Array.make n 0;
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

(* Work split between boundary and inner groups (§4.1.2); also used to model
   the device shares of concurrently running discrete kernels. *)
let split_for st ctx pe =
  let slab = st.slabs.(pe) in
  let total_blocks = G.Arch.co_resident_blocks (G.Runtime.arch ctx) in
  if Array.length st.slabs = 1 then Specialize.no_boundary ~total_blocks
  else
    Specialize.split ~total_blocks ~boundary_elems:(Slab.boundary_elems slab)
      ~inner_elems:(Slab.inner_elems slab)

let has_up pe = pe > 0
let has_down st pe = pe < Array.length st.slabs - 1

(* Host-side cudaMemcpyAsync halo pushes for iteration [t] (Copy/Overlap). *)
let memcpy_exchange st ctx ~stream ~pe ~t =
  let slab = st.slabs.(pe) in
  let len = slab.Slab.plane in
  if has_up pe then begin
    let up = st.slabs.(pe - 1) in
    G.Runtime.memcpy_async ctx ~stream ~src:(dst_buf st ~pe t)
      ~src_pos:(Slab.top_own_off slab)
      ~dst:(dst_buf st ~pe:(pe - 1) t)
      ~dst_pos:(Slab.bottom_halo_off up) ~len
  end;
  if has_down st pe then begin
    let down = st.slabs.(pe + 1) in
    G.Runtime.memcpy_async ctx ~stream ~src:(dst_buf st ~pe t)
      ~src_pos:(Slab.bottom_own_off slab)
      ~dst:(dst_buf st ~pe:(pe + 1) t)
      ~dst_pos:(Slab.top_halo_off down) ~len
  end

(* In-kernel direct peer stores for the same exchange (P2P variant). *)
let p2p_exchange st ctx ~pe ~t =
  let slab = st.slabs.(pe) in
  let len = slab.Slab.plane in
  if has_up pe then
    P2p_copy.copy ctx ~from_dev:pe ~src:(dst_buf st ~pe t) ~src_pos:(Slab.top_own_off slab)
      ~dst:(dst_buf st ~pe:(pe - 1) t)
      ~dst_pos:(Slab.bottom_halo_off st.slabs.(pe - 1))
      ~len;
  if has_down st pe then
    P2p_copy.copy ctx ~from_dev:pe ~src:(dst_buf st ~pe t)
      ~src_pos:(Slab.bottom_own_off slab)
      ~dst:(dst_buf st ~pe:(pe + 1) t)
      ~dst_pos:(Slab.top_halo_off st.slabs.(pe + 1))
      ~len

(* NVSHMEM put+signal of both freshly computed boundary planes (§4.1.1). *)
let nvshmem_exchange st ~pe ~t =
  let slab = st.slabs.(pe) in
  let len = slab.Slab.plane in
  let dst = dst_sym st t in
  if has_up pe then
    Proto.put_boundary st.proto ~from_pe:pe ~dir:Proto.Up ~src:(dst_buf st ~pe t)
      ~src_pos:(Slab.top_own_off slab) ~dst
      ~dst_pos:(Slab.bottom_halo_off st.slabs.(pe - 1))
      ~len ~iter:t;
  if has_down st pe then
    Proto.put_boundary st.proto ~from_pe:pe ~dir:Proto.Down ~src:(dst_buf st ~pe t)
      ~src_pos:(Slab.bottom_own_off slab) ~dst
      ~dst_pos:(Slab.top_halo_off st.slabs.(pe + 1))
      ~len ~iter:t

let boundary_plane_list slab = Slab.boundary_planes slab

let norm_due st t =
  match st.problem.Problem.norm_every with Some k -> t mod k = 0 | None -> false

(* The NVIDIA samples' convergence check, CPU-controlled style: a reduction
   kernel over the owned domain, a device-to-host copy of the partial norm,
   and a host allreduce across ranks. *)
let host_norm_check st ctx ~stream ~barrier ~pe ~t =
  if norm_due st t then begin
    let slab = st.slabs.(pe) in
    let cost =
      kernel_cost st ctx ~elems:(slab.Slab.planes * slab.Slab.plane) ~fraction:1.0
        ~efficiency:1.0
        ~bytes_per_elem:(float_of_int G.Buffer.elem_bytes)
    in
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
    let slab = st.slabs.(pe) in
    let cost =
      kernel_cost st ctx ~elems:(slab.Slab.planes * slab.Slab.plane) ~fraction ~efficiency:1.0
        ~bytes_per_elem:(float_of_int G.Buffer.elem_bytes)
    in
    E.Engine.delay (G.Runtime.engine ctx) (G.Runtime.scaled_cost ctx ~gpu:pe cost);
    let (_ : float) = Collective.allreduce_sum st.coll ~pe 0.0 in
    ()
  end

(* ------------------------------------------------------------------ *)
(* CPU-controlled variants                                             *)
(* ------------------------------------------------------------------ *)

let run_copy st ctx =
  let barrier = G.Host.barrier_create ctx ~parties:(G.Runtime.num_gpus ctx) in
  G.Host.parallel_join ctx ~name:"copy" (fun pe ->
      let eng = G.Runtime.engine ctx in
      let dev = G.Runtime.device ctx pe in
      let stream = G.Stream.create eng ~dev ~name:"s0" in
      let slab = st.slabs.(pe) in
      let cost =
        kernel_cost st ctx ~elems:(slab.Slab.planes * slab.Slab.plane) ~fraction:1.0
          ~efficiency:1.0 ~bytes_per_elem:stencil_bpe
      in
      for t = 1 to st.problem.Problem.iterations do
        G.Runtime.launch ctx ~stream ~name:"jacobi" ~cost (fun () ->
            apply st ~pe ~t ~p0:1 ~p1:slab.Slab.planes);
        memcpy_exchange st ctx ~stream ~pe ~t;
        G.Runtime.stream_synchronize ctx stream;
        host_norm_check st ctx ~stream ~barrier ~pe ~t;
        G.Host.barrier_wait ctx barrier;
        tick st ~pe ~t
      done)

let run_overlap st ctx =
  let barrier = G.Host.barrier_create ctx ~parties:(G.Runtime.num_gpus ctx) in
  G.Host.parallel_join ctx ~name:"overlap" (fun pe ->
      let eng = G.Runtime.engine ctx in
      let dev = G.Runtime.device ctx pe in
      let comp = G.Stream.create eng ~dev ~name:"comp" in
      let comm = G.Stream.create eng ~dev ~name:"comm" in
      let slab = st.slabs.(pe) in
      let boundary_planes = boundary_plane_list slab in
      (* Discrete kernels are not co-residency-limited: the hardware scheduler
         time-shares SMs between the two concurrent kernels, so the small
         boundary kernel effectively sees about half the device while the
         inner kernel retains full throughput once it drains. *)
      let boundary_cost =
        kernel_cost st ctx
          ~elems:(List.length boundary_planes * slab.Slab.plane)
          ~fraction:0.5 ~efficiency:1.0 ~bytes_per_elem:stencil_bpe
      in
      let inner_cost =
        kernel_cost st ctx ~elems:(Slab.inner_elems slab) ~fraction:1.0 ~efficiency:1.0
          ~bytes_per_elem:stencil_bpe
      in
      for t = 1 to st.problem.Problem.iterations do
        G.Runtime.launch ctx ~stream:comp ~name:"inner" ~cost:inner_cost (fun () ->
            apply_inner st ~pe ~t);
        G.Runtime.launch ctx ~stream:comm ~name:"boundary" ~cost:boundary_cost (fun () ->
            apply_planes st ~pe ~t boundary_planes);
        memcpy_exchange st ctx ~stream:comm ~pe ~t;
        G.Runtime.stream_synchronize ctx comm;
        G.Runtime.stream_synchronize ctx comp;
        host_norm_check st ctx ~stream:comp ~barrier ~pe ~t;
        G.Host.barrier_wait ctx barrier;
        tick st ~pe ~t
      done)

let run_p2p st ctx =
  let barrier = G.Host.barrier_create ctx ~parties:(G.Runtime.num_gpus ctx) in
  G.Host.parallel_join ctx ~name:"p2p" (fun pe ->
      let eng = G.Runtime.engine ctx in
      let dev = G.Runtime.device ctx pe in
      let comp = G.Stream.create eng ~dev ~name:"comp" in
      let comm = G.Stream.create eng ~dev ~name:"comm" in
      let slab = st.slabs.(pe) in
      let boundary_planes = boundary_plane_list slab in
      (* Discrete kernels are not co-residency-limited: the hardware scheduler
         time-shares SMs between the two concurrent kernels, so the small
         boundary kernel effectively sees about half the device while the
         inner kernel retains full throughput once it drains. *)
      let boundary_cost =
        kernel_cost st ctx
          ~elems:(List.length boundary_planes * slab.Slab.plane)
          ~fraction:0.5 ~efficiency:1.0 ~bytes_per_elem:stencil_bpe
      in
      let inner_cost =
        kernel_cost st ctx ~elems:(Slab.inner_elems slab) ~fraction:1.0 ~efficiency:1.0
          ~bytes_per_elem:stencil_bpe
      in
      for t = 1 to st.problem.Problem.iterations do
        G.Runtime.launch ctx ~stream:comp ~name:"inner" ~cost:inner_cost (fun () ->
            apply_inner st ~pe ~t);
        G.Runtime.launch ctx ~stream:comm ~name:"boundary+p2p" ~cost:boundary_cost (fun () ->
            apply_planes st ~pe ~t boundary_planes;
            p2p_exchange st ctx ~pe ~t);
        G.Runtime.stream_synchronize ctx comm;
        G.Runtime.stream_synchronize ctx comp;
        host_norm_check st ctx ~stream:comp ~barrier ~pe ~t;
        G.Host.barrier_wait ctx barrier;
        tick st ~pe ~t
      done)

let run_nvshmem st ctx =
  let barrier = G.Host.barrier_create ctx ~parties:(G.Runtime.num_gpus ctx) in
  G.Host.parallel_join ctx ~name:"nvshmem" (fun pe ->
      let eng = G.Runtime.engine ctx in
      let dev = G.Runtime.device ctx pe in
      let stream = G.Stream.create eng ~dev ~name:"s0" in
      let slab = st.slabs.(pe) in
      let cost =
        kernel_cost st ctx ~elems:(slab.Slab.planes * slab.Slab.plane) ~fraction:1.0
          ~efficiency:1.0 ~bytes_per_elem:stencil_bpe
      in
      for t = 1 to st.problem.Problem.iterations do
        (* Dedicated neighbour-sync kernel: wait for this iteration's inbound
           halos so the compute kernel can read them. *)
        G.Runtime.launch ctx ~stream ~name:"sync_kernel" (fun () ->
            Proto.wait_halo st.proto ~pe ~dir:Proto.Up ~iter:t;
            Proto.wait_halo st.proto ~pe ~dir:Proto.Down ~iter:t);
        G.Runtime.launch ctx ~stream ~name:"jacobi+put" ~cost (fun () ->
            apply st ~pe ~t ~p0:1 ~p1:slab.Slab.planes;
            nvshmem_exchange st ~pe ~t);
        (* Peer synchronization is device-side, but the NVIDIA sample this
           baseline reproduces still synchronizes its stream every iteration
           (residual-norm check) — host control is reduced, not gone. *)
        G.Runtime.stream_synchronize ctx stream;
        host_norm_check st ctx ~stream ~barrier ~pe ~t;
        tick st ~pe ~t
      done;
      Nv.quiet st.nv ~pe)

(* ------------------------------------------------------------------ *)
(* CPU-Free variants (§4): persistent kernel, specialized TB roles     *)
(* ------------------------------------------------------------------ *)

let run_persistent st ctx ~label ~inner_bpe ~inner_efficiency =
  let iterations = st.problem.Problem.iterations in
  let threads = 1024 in
  let roles pe =
    let slab = st.slabs.(pe) in
    let split = split_for st ctx pe in
    let boundary_fraction =
      if split.Specialize.boundary_blocks = 0 then 1.0 /. float_of_int split.Specialize.total_blocks
      else Specialize.boundary_fraction split
    in
    (* Persistent-kernel role costs are charged with direct delays (no
       {!G.Runtime.launch} in the loop), so straggler scaling applies here. *)
    let boundary_cost =
      G.Runtime.scaled_cost ctx ~gpu:pe
        (kernel_cost st ctx ~elems:slab.Slab.plane ~fraction:boundary_fraction ~efficiency:1.0
           ~bytes_per_elem:stencil_bpe)
    in
    let inner_cost =
      G.Runtime.scaled_cost ctx ~gpu:pe
        (kernel_cost st ctx ~elems:(Slab.inner_elems slab)
           ~fraction:(Stdlib.max (Specialize.inner_fraction split) 0.01)
           ~efficiency:(inner_efficiency ~elems:(Slab.inner_elems slab))
           ~bytes_per_elem:(inner_bpe ~elems:(Slab.inner_elems slab)))
    in
    let eng = G.Runtime.engine ctx in
    let single = Array.length st.slabs = 1 && slab.Slab.planes = 1 in
    let comm_role dir plane_idx own_off halo_of_peer other_dir_peer =
      fun grid ->
        for t = 1 to iterations do
          Proto.wait_halo st.proto ~pe ~dir ~iter:t;
          let t0 = E.Engine.now eng in
          E.Engine.delay eng boundary_cost;
          apply st ~pe ~t ~p0:plane_idx ~p1:plane_idx;
          E.Engine.log_compute eng ~since:t0;
          (match E.Engine.trace eng with
          | None -> ()
          | Some tr ->
            E.Trace.add tr
              ~lane:(G.Device.lane (G.Runtime.device ctx pe) "boundary")
              ~label:"boundary" ~kind:E.Trace.Compute ~t0 ~t1:(E.Engine.now eng));
          (match other_dir_peer with
          | None -> ()
          | Some to_pe ->
            ignore to_pe;
            Proto.put_boundary st.proto ~from_pe:pe ~dir ~src:(dst_buf st ~pe t)
              ~src_pos:own_off ~dst:(dst_sym st t) ~dst_pos:halo_of_peer ~len:slab.Slab.plane
              ~iter:t);
          G.Coop.sync grid
        done
    in
    let top_role =
      let peer = if has_up pe then Some (pe - 1) else None in
      let halo_off = if has_up pe then Slab.bottom_halo_off st.slabs.(pe - 1) else 0 in
      comm_role Proto.Up 1 (Slab.top_own_off slab) halo_off peer
    in
    let bottom_role =
      let peer = if has_down st pe then Some (pe + 1) else None in
      let halo_off = if has_down st pe then Slab.top_halo_off st.slabs.(pe + 1) else 0 in
      comm_role Proto.Down slab.Slab.planes (Slab.bottom_own_off slab) halo_off peer
    in
    let inner_role grid =
      for t = 1 to iterations do
        let t0 = E.Engine.now eng in
        E.Engine.delay eng inner_cost;
        apply_inner st ~pe ~t;
        E.Engine.log_compute eng ~since:t0;
        (match E.Engine.trace eng with
        | None -> ()
        | Some tr ->
          E.Trace.add tr
            ~lane:(G.Device.lane (G.Runtime.device ctx pe) "inner")
            ~label:"inner" ~kind:E.Trace.Compute ~t0 ~t1:(E.Engine.now eng));
        G.Coop.sync grid;
        device_norm_check st ctx ~pe ~t
          ~fraction:(Stdlib.max (Specialize.inner_fraction split) 0.01);
        tick st ~pe ~t
      done
    in
    if single then [ ("comm_top", top_role); ("inner", inner_role) ]
    else [ ("comm_top", top_role); ("comm_bottom", bottom_role); ("inner", inner_role) ]
  in
  Persistent.run_all ctx ~name:label ~blocks:(Persistent.max_blocks ctx)
    ~threads_per_block:threads ~roles;
  (* The persistent kernels have exited; flush any trailing deliveries. *)
  G.Host.parallel_join ctx ~name:(label ^ ".drain") (fun pe -> Nv.quiet st.nv ~pe)

let run_cpu_free st ctx =
  let arch = G.Runtime.arch ctx in
  run_persistent st ctx ~label:"cpu_free"
    ~inner_bpe:(fun ~elems:_ -> stencil_bpe)
    ~inner_efficiency:(fun ~elems -> G.Kernel.tiling_efficiency arch ~elems ~threads:1024)

let run_perks st ctx =
  let arch = G.Runtime.arch ctx in
  run_persistent st ctx ~label:"perks"
    ~inner_bpe:(fun ~elems -> G.Kernel.perks_bytes_per_elem arch ~elems)
    ~inner_efficiency:(fun ~elems:_ -> 1.0)

(* The alternative design of §4: instead of specializing thread blocks
   inside one kernel, run two co-resident persistent kernels per device —
   one managing the boundary/communication, one the inner domain — in
   separate streams, synchronized once per iteration by busy-waiting on
   flags in local device memory. The paper reports no significant
   performance difference versus the single-kernel design; keeping both lets
   the benchmark suite check that claim. *)
let run_cpu_free_multi st ctx =
  let eng = G.Runtime.engine ctx in
  let arch = G.Runtime.arch ctx in
  let iterations = st.problem.Problem.iterations in
  (* Local-memory iteration flags, one pair per device. *)
  let n = G.Runtime.num_gpus ctx in
  let comm_done = Array.init n (fun pe -> E.Sync.Flag.create ~name:(Printf.sprintf "gpu%d.comm_done" pe) eng 0) in
  let comp_done = Array.init n (fun pe -> E.Sync.Flag.create ~name:(Printf.sprintf "gpu%d.comp_done" pe) eng 0) in
  let local_flag_latency = Time.ns 300 in
  let cross_kernel_sync ~pe ~mine ~other ~t =
    E.Sync.Flag.set mine.(pe) t;
    E.Sync.Flag.wait_ge other.(pe) t;
    E.Engine.delay eng local_flag_latency
  in
  G.Host.parallel_join ctx ~name:"cpu_free_2k" (fun pe ->
      let dev = G.Runtime.device ctx pe in
      let slab = st.slabs.(pe) in
      let split = split_for st ctx pe in
      let boundary_fraction =
        if split.Specialize.boundary_blocks = 0 then
          1.0 /. float_of_int split.Specialize.total_blocks
        else Specialize.boundary_fraction split
      in
      let boundary_cost =
        G.Runtime.scaled_cost ctx ~gpu:pe
          (kernel_cost st ctx ~elems:slab.Slab.plane ~fraction:boundary_fraction ~efficiency:1.0
             ~bytes_per_elem:stencil_bpe)
      in
      let inner_cost =
        G.Runtime.scaled_cost ctx ~gpu:pe
          (kernel_cost st ctx ~elems:(Slab.inner_elems slab)
             ~fraction:(Stdlib.max (Specialize.inner_fraction split) 0.01)
             ~efficiency:
               (G.Kernel.tiling_efficiency arch ~elems:(Slab.inner_elems slab) ~threads:1024)
             ~bytes_per_elem:stencil_bpe)
      in
      let comm_side dir plane_idx own_off halo_off grid =
        for t = 1 to iterations do
          Proto.wait_halo st.proto ~pe ~dir ~iter:t;
          E.Engine.delay eng boundary_cost;
          apply st ~pe ~t ~p0:plane_idx ~p1:plane_idx;
          (match Proto.neighbor st.proto ~pe dir with
          | None -> ()
          | Some _ ->
            Proto.put_boundary st.proto ~from_pe:pe ~dir ~src:(dst_buf st ~pe t)
              ~src_pos:own_off ~dst:(dst_sym st t) ~dst_pos:halo_off ~len:slab.Slab.plane
              ~iter:t);
          G.Coop.sync grid;
          (* Leader block of the comm kernel publishes completion and spins
             on the compute kernel's flag. *)
          if dir = Proto.Up then cross_kernel_sync ~pe ~mine:comm_done ~other:comp_done ~t
          else E.Sync.Flag.wait_ge comp_done.(pe) t
        done
      in
      let comm_roles =
        [
          ( "comm_top",
            fun grid ->
              comm_side Proto.Up 1 (Slab.top_own_off slab)
                (if has_up pe then Slab.bottom_halo_off st.slabs.(pe - 1) else 0)
                grid );
          ( "comm_bottom",
            fun grid ->
              comm_side Proto.Down slab.Slab.planes (Slab.bottom_own_off slab)
                (if has_down st pe then Slab.top_halo_off st.slabs.(pe + 1) else 0)
                grid );
        ]
      in
      let comp_roles =
        [
          ( "inner",
            fun grid ->
              for t = 1 to iterations do
                E.Engine.delay eng inner_cost;
                apply_inner st ~pe ~t;
                G.Coop.sync grid;
                cross_kernel_sync ~pe ~mine:comp_done ~other:comm_done ~t;
                device_norm_check st ctx ~pe ~t
                  ~fraction:(Stdlib.max (Specialize.inner_fraction split) 0.01);
                tick st ~pe ~t
              done );
        ]
      in
      (* Two cooperative kernels sharing the device: split the co-resident
         block budget between them. *)
      let comm_blocks = Stdlib.max 2 (2 * split.Specialize.boundary_blocks) in
      let comp_blocks = Stdlib.max 1 (split.Specialize.total_blocks - comm_blocks) in
      let fin_comm =
        G.Runtime.launch_cooperative ctx ~dev ~name:"comm_kernel" ~blocks:comm_blocks
          ~threads_per_block:1024 ~roles:comm_roles
      in
      let fin_comp =
        G.Runtime.launch_cooperative ctx ~dev ~name:"comp_kernel" ~blocks:comp_blocks
          ~threads_per_block:1024 ~roles:comp_roles
      in
      G.Runtime.join_kernel ctx ~roles:(List.length comm_roles) fin_comm;
      G.Runtime.join_kernel ctx ~roles:(List.length comp_roles) fin_comp;
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
  let progress_store = ref None in
  let program ctx =
    let st = setup problem ctx in
    progress_store := Some st.progress;
    (match kind with
    | Copy -> run_copy st ctx
    | Overlap -> run_overlap st ctx
    | P2p -> run_p2p st ctx
    | Nvshmem -> run_nvshmem st ctx
    | Cpu_free -> run_cpu_free st ctx
    | Perks -> run_perks st ctx
    | Cpu_free_multi -> run_cpu_free_multi st ctx);
    let sym = final_sym st in
    store := Some (Array.init gpus (fun pe -> Nv.local sym ~pe))
  in
  { program; final = (fun () -> !store); progress = (fun () -> !progress_store) }
