module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Mpi = Cpufree_comm.Mpi
module Time = E.Time
open Sdfg

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Lowering_error m)) fmt

let init_value idx =
  let x = float_of_int idx in
  sin (x *. 0.011) +. (0.5 *. cos (x *. 0.017))

type built = {
  program : G.Runtime.ctx -> unit;
  read_array : string -> pe:int -> G.Buffer.t option;
}

(* Shared (all-rank) runtime objects. *)
type runtime = {
  ctx : G.Runtime.ctx;
  nv : Nv.t;
  mpi : Mpi.t;
  syms : (string, Nv.sym) Hashtbl.t;
  sigs : (string, Nv.signal) Hashtbl.t;
}

(* Per-rank execution environment. *)
type env = {
  rt : runtime;
  rank : int;
  size : int;
  vars : (string, int) Hashtbl.t;
  reqs : (string, Mpi.request) Hashtbl.t;
}

let lookup env s =
  match s with
  | "rank" -> Some env.rank
  | "size" -> Some env.size
  | _ -> Hashtbl.find_opt env.vars s

let eval env e = Symbolic.eval ~env:(lookup env) e
let eval_cond env c = Symbolic.eval_cond ~env:(lookup env) c

let sym_of env name =
  match Hashtbl.find_opt env.rt.syms name with
  | Some s -> s
  | None -> fail "unknown array %s" name

let buf_of env name = Nv.local (sym_of env name) ~pe:env.rank

let sig_of env name =
  match Hashtbl.find_opt env.rt.sigs name with
  | Some s -> s
  | None -> fail "unknown signal %s" name

let sig_kind = function Sig_set -> Nv.Signal_set | Sig_add -> Nv.Signal_add

let mpi_region env arr (r : region) =
  {
    Mpi.buf = buf_of env arr;
    pos = eval env r.offset;
    stride = eval env r.stride;
    count = eval env r.count;
  }

(* --- map semantics ----------------------------------------------------- *)

let rec apply_sem env ~i sem =
  match sem with
  | Jacobi1d { src; dst } ->
    let s = buf_of env src and d = buf_of env dst in
    if not (G.Buffer.is_phantom s || G.Buffer.is_phantom d) then
      G.Buffer.set d i
        ((G.Buffer.get s (i - 1) +. G.Buffer.get s i +. G.Buffer.get s (i + 1)) /. 3.0)
  | Jacobi2d { src; dst; row_width; col_lo; col_hi } ->
    let s = buf_of env src and d = buf_of env dst in
    if not (G.Buffer.is_phantom s || G.Buffer.is_phantom d) then begin
      let w = eval env row_width in
      let row = i * w in
      for c = eval env col_lo to eval env col_hi do
        let k = row + c in
        G.Buffer.set d k
          (0.25
          *. (G.Buffer.get s (k - w) +. G.Buffer.get s (k + w) +. G.Buffer.get s (k - 1)
             +. G.Buffer.get s (k + 1)))
      done
    end
  | Jacobi3d { src; dst; row_width; plane_width; ny } ->
    let s = buf_of env src and d = buf_of env dst in
    if not (G.Buffer.is_phantom s || G.Buffer.is_phantom d) then begin
      let w = eval env row_width and pw = eval env plane_width in
      let ny = eval env ny in
      let base = i * pw in
      for y = 1 to ny do
        let row = base + (y * w) in
        for x = 1 to w - 2 do
          let k = row + x in
          G.Buffer.set d k
            ((G.Buffer.get s (k - pw) +. G.Buffer.get s (k + pw) +. G.Buffer.get s (k - w)
             +. G.Buffer.get s (k + w) +. G.Buffer.get s (k - 1) +. G.Buffer.get s (k + 1))
            /. 6.0)
        done
      done
    end
  | Copy_elems { src; dst; src_off; dst_off } ->
    let s = buf_of env src and d = buf_of env dst in
    if not (G.Buffer.is_phantom s || G.Buffer.is_phantom d) then
      G.Buffer.set d (eval env dst_off + i) (G.Buffer.get s (eval env src_off + i))
  | Fill { dst; value } ->
    let d = buf_of env dst in
    if not (G.Buffer.is_phantom d) then G.Buffer.set d i value
  | Init_global { dst; global_off } ->
    let d = buf_of env dst in
    if not (G.Buffer.is_phantom d) then G.Buffer.set d i (init_value (eval env global_off + i))
  | Init_global2d { dst; row_width; global_row0; global_row_width; global_col0 } ->
    let d = buf_of env dst in
    if not (G.Buffer.is_phantom d) then begin
      let w = eval env row_width in
      let grw = eval env global_row_width in
      let gr = eval env global_row0 + i and gc = eval env global_col0 in
      for c = 0 to w - 1 do
        G.Buffer.set d ((i * w) + c) (init_value ((gr * grw) + gc + c))
      done
    end
  | Multi sems -> List.iter (apply_sem env ~i) sems

(* Data arrays a semantic touches; phantom operands make the whole map a
   data no-op, so the interpreter can skip the per-index loop entirely. *)
let rec sem_arrays = function
  | Jacobi1d { src; dst } | Jacobi2d { src; dst; _ } | Jacobi3d { src; dst; _ }
  | Copy_elems { src; dst; _ } -> [ src; dst ]
  | Fill { dst; _ } | Init_global { dst; _ } | Init_global2d { dst; _ } -> [ dst ]
  | Multi sems -> List.concat_map sem_arrays sems

let sem_has_data env sem =
  List.for_all (fun a -> not (G.Buffer.is_phantom (buf_of env a))) (sem_arrays sem)

let run_map_body env (m : map_stmt) =
  if sem_has_data env m.m_sem then begin
    let lo = eval env m.m_lo and hi = eval env m.m_hi in
    for i = lo to hi do
      apply_sem env ~i m.m_sem
    done
  end

let map_elems env (m : map_stmt) =
  let lo = eval env m.m_lo and hi = eval env m.m_hi in
  if hi < lo then 0 else (hi - lo + 1) * eval env m.m_work

let map_cost env ~efficiency (m : map_stmt) =
  let elems = map_elems env m in
  if elems = 0 then Time.zero
  else
    G.Kernel.memory_bound_time (G.Runtime.arch env.rt.ctx) ~elems
      ~bytes_per_elem:(G.Kernel.stencil_bytes_per_elem ())
      ~sm_fraction:1.0 ~efficiency

(* --- device-side library node execution (persistent backend) ----------- *)

let exec_nv_node env node =
  let nv = env.rt.nv in
  let from_pe = env.rank in
  match node with
  | Nv_putmem { src; src_region; dst; dst_region; to_pe } ->
    Nv.putmem_nbi nv ~from_pe ~to_pe:(eval env to_pe) ~src:(buf_of env src)
      ~src_pos:(eval env src_region.offset) ~dst:(sym_of env dst)
      ~dst_pos:(eval env dst_region.offset) ~len:(eval env src_region.count)
  | Nv_putmem_signal { src; src_region; dst; dst_region; to_pe; signal; sig_kind = k; sig_value }
    ->
    Nv.putmem_signal_nbi nv ~from_pe ~to_pe:(eval env to_pe) ~src:(buf_of env src)
      ~src_pos:(eval env src_region.offset) ~dst:(sym_of env dst)
      ~dst_pos:(eval env dst_region.offset) ~len:(eval env src_region.count)
      ~sig_var:(sig_of env signal) ~sig_op:(sig_kind k) ~sig_value:(eval env sig_value)
  | Nv_iput { src; src_region; dst; dst_region; to_pe } ->
    Nv.iput_nbi nv ~from_pe ~to_pe:(eval env to_pe) ~src:(buf_of env src)
      ~src_pos:(eval env src_region.offset) ~src_stride:(eval env src_region.stride)
      ~dst:(sym_of env dst) ~dst_pos:(eval env dst_region.offset)
      ~dst_stride:(eval env dst_region.stride) ~count:(eval env src_region.count)
  | Nv_p { src; src_off; dst; dst_off; to_pe } ->
    let value = G.Buffer.get (buf_of env src) (eval env src_off) in
    Nv.p nv ~from_pe ~to_pe:(eval env to_pe) ~value ~dst:(sym_of env dst)
      ~dst_pos:(eval env dst_off)
  | Nv_signal_op { signal; sig_kind = k; sig_value; to_pe } ->
    Nv.signal_op_remote nv ~from_pe ~to_pe:(eval env to_pe) ~sig_var:(sig_of env signal)
      ~sig_op:(sig_kind k) ~sig_value:(eval env sig_value)
  | Nv_signal_wait { signal; ge_value } ->
    Nv.signal_wait_ge nv ~pe:env.rank ~sig_var:(sig_of env signal) (eval env ge_value)
  | Nv_quiet -> Nv.quiet nv ~pe:env.rank
  | Nv_put _ -> fail "unexpanded Nv_put reached the backend (run Transforms.expand_nvshmem)"
  | Mpi_isend _ | Mpi_irecv _ | Mpi_waitall _ -> fail "MPI node inside a persistent kernel"

(* --- interstate walking ------------------------------------------------ *)

let choose_edge env edges =
  List.find_opt
    (fun e -> match e.e_cond with None -> true | Some c -> eval_cond env c)
    edges

let apply_assignments env e =
  List.iter (fun (v, ex) -> Hashtbl.replace env.vars v (eval env ex)) e.e_assign

let walk_states sdfg env ~exec_state =
  let steps = ref 0 in
  let rec go cur =
    incr steps;
    if !steps > 10_000_000 then fail "interstate walk did not terminate";
    (match find_state sdfg cur with
    | Some st -> exec_state st
    | None -> fail "missing state %s" cur);
    match choose_edge env (out_edges sdfg cur) with
    | None -> ()
    | Some e ->
      apply_assignments env e;
      go e.e_dst
  in
  go sdfg.start_state

(* --- shared allocation ------------------------------------------------- *)

let make_runtime ?(backed = false) (sdfg : Sdfg.t) ctx =
  let nv = Nv.init ctx in
  let mpi = Mpi.init ctx in
  let syms = Hashtbl.create 16 and sigs = Hashtbl.create 16 in
  let alloc_env s =
    match s with
    | "size" -> Some (G.Runtime.num_gpus ctx)
    | "rank" -> Some 0
    | _ -> List.assoc_opt s sdfg.symbols
  in
  List.iter
    (fun a ->
      let elems = Symbolic.eval ~env:alloc_env a.arr_size in
      Hashtbl.replace syms a.arr_name
        (Nv.sym_malloc nv ~label:a.arr_name ~phantom:(not backed) elems))
    sdfg.arrays;
  List.iter (fun s -> Hashtbl.replace sigs s (Nv.signal_malloc nv ~label:s ())) sdfg.sdfg_signals;
  { ctx; nv; mpi; syms; sigs }

let make_env rt ~rank (sdfg : Sdfg.t) =
  let vars = Hashtbl.create 16 in
  List.iter (fun (s, v) -> Hashtbl.replace vars s v) sdfg.symbols;
  { rt; rank; size = G.Runtime.num_gpus rt.ctx; vars; reqs = Hashtbl.create 16 }

(* --- baseline (CPU-controlled) backend --------------------------------- *)

(* A map left on [Sequential] schedule executes on the host CPU. Host DRAM
   streams roughly an order of magnitude below device HBM for these
   memory-bound stencils, so charge the device memory-bound time scaled by
   this factor. Nothing in the hand-built pipelines reaches this path (they
   all run [Transforms.gpu_transform] first); it exists so the autotuner's
   "offload off" candidate has an honest cost instead of a free ride. *)
let host_dram_slowdown = 12.0

let host_map_cost env (m : map_stmt) =
  Time.scale (map_cost env ~efficiency:1.0 m) host_dram_slowdown

let exec_state_baseline env stream st =
  let ctx = env.rt.ctx in
  let used_gpu = ref false in
  let rec exec_stmt = function
    | S_map m -> (
      match m.m_schedule with
      | Gpu_device ->
        used_gpu := true;
        let cost = map_cost env ~efficiency:1.0 m in
        G.Runtime.launch ctx ~stream ~name:("map_" ^ m.m_var) ~cost (fun () ->
            run_map_body env m)
      | Sequential ->
        let cost = host_map_cost env m in
        if Time.(cost > Time.zero) then E.Engine.delay (G.Runtime.engine ctx) cost;
        run_map_body env m
      | Gpu_persistent -> fail "persistent-scheduled map in the baseline backend")
    | S_copy { c_src; c_src_region; c_dst; c_dst_region } ->
      used_gpu := true;
      let src_pos = eval env c_src_region.offset and dst_pos = eval env c_dst_region.offset in
      if eval env c_src_region.stride <> 1 || eval env c_dst_region.stride <> 1 then
        fail "baseline S_copy supports contiguous regions only";
      G.Runtime.memcpy_async ctx ~stream ~src:(buf_of env c_src) ~src_pos
        ~dst:(buf_of env c_dst) ~dst_pos ~len:(eval env c_src_region.count)
    | S_lib (Mpi_isend { arr; region; dst_rank; tag; req }) ->
      (* DaCe generates a stream synchronize before host communication so the
         device data is visible (Fig. 5.1). *)
      G.Runtime.stream_synchronize ctx stream;
      let r = Mpi.isend env.rt.mpi ~rank:env.rank ~dst:(eval env dst_rank) ~tag
          (mpi_region env arr region)
      in
      Hashtbl.replace env.reqs req r
    | S_lib (Mpi_irecv { arr; region; src_rank; tag; req }) ->
      let r = Mpi.irecv env.rt.mpi ~rank:env.rank ~src:(eval env src_rank) ~tag
          (mpi_region env arr region)
      in
      Hashtbl.replace env.reqs req r
    | S_lib (Mpi_waitall names) ->
      let rs =
        List.map
          (fun n ->
            match Hashtbl.find_opt env.reqs n with
            | Some r -> r
            | None -> fail "MPI_Waitall on unknown request %s" n)
          names
      in
      Mpi.waitall env.rt.mpi rs
    | S_lib
        ( Nv_put _ | Nv_putmem _ | Nv_putmem_signal _ | Nv_iput _ | Nv_p _ | Nv_signal_op _
        | Nv_signal_wait _ | Nv_quiet ) -> fail "NVSHMEM node in host (baseline) code"
    | S_cond { cond; then_ } -> if eval_cond env cond then List.iter exec_stmt then_
    | S_role { body; _ } -> List.iter exec_stmt body
    | S_grid_sync -> G.Runtime.stream_synchronize ctx stream
  in
  List.iter exec_stmt st.stmts;
  (* DaCe closes every GPU state with a stream synchronize. *)
  if !used_gpu then G.Runtime.stream_synchronize ctx stream

let build_baseline ?backed sdfg =
  let store = ref None in
  let program ctx =
    let rt = make_runtime ?backed sdfg ctx in
    store := Some rt;
    G.Host.parallel_join ctx ~name:sdfg.sdfg_name (fun rank ->
        let env = make_env rt ~rank sdfg in
        let stream =
          G.Stream.create (G.Runtime.engine ctx) ~dev:(G.Runtime.device ctx rank) ~name:"s0"
        in
        walk_states sdfg env ~exec_state:(exec_state_baseline env stream))
  in
  let read_array name ~pe =
    match !store with
    | None -> None
    | Some rt ->
      Option.map (fun s -> Nv.local s ~pe) (Hashtbl.find_opt rt.syms name)
  in
  { program; read_array }

(* --- persistent (CPU-Free) backend ------------------------------------- *)

(* Which thread-block group this simulated process plays inside the
   persistent kernel. [Role_all] is the unspecialized single-group schedule
   of Section 5.3.2; the Comm/Compute pair is the specialized schedule
   produced by {!Persistent_fusion.specialize_tb}. *)
type exec_role = Role_all | Role_comm | Role_compute

(* Device share of maps executed by each group. The communication group gets
   a fixed small block budget (boundary rows are one to two blocks of work);
   see Cpufree_core.Specialize for the stencil-side derivation. *)
let comm_group_fraction = 4.0 /. 108.0

let map_fraction = function
  | Role_all -> 1.0
  | Role_comm -> comm_group_fraction
  | Role_compute -> 1.0 -. comm_group_fraction

let rec contains_role stmts =
  List.exists
    (function
      | S_role _ -> true
      | S_cond { then_; _ } -> contains_role then_
      | S_map _ | S_copy _ | S_lib _ | S_grid_sync -> false)
    stmts

let exec_stmt_persistent env grid ~role =
  let ctx = env.rt.ctx in
  let arch = G.Runtime.arch ctx in
  let eng = G.Runtime.engine ctx in
  let lane =
    G.Device.lane (G.Runtime.device ctx env.rank)
      (match role with Role_comm -> "comm" | Role_all | Role_compute -> "persistent")
  in
  let rec exec stmt =
    match stmt with
    | S_map m -> (
      match m.m_schedule with
      | Gpu_persistent | Sequential ->
        let efficiency =
          G.Kernel.tiling_efficiency arch ~elems:(map_elems env m)
            ~threads:(G.Coop.threads_per_block grid)
        in
        let cost =
          let elems = map_elems env m in
          if elems = 0 then Time.zero
          else
            G.Kernel.memory_bound_time arch ~elems
              ~bytes_per_elem:(G.Kernel.stencil_bytes_per_elem ())
              ~sm_fraction:(map_fraction role) ~efficiency
        in
        let t0 = E.Engine.now eng in
        E.Engine.delay eng cost;
        run_map_body env m;
        E.Trace.add_opt (E.Engine.trace eng) ~lane ~label:("map_" ^ m.m_var)
          ~kind:E.Trace.Compute ~t0 ~t1:(E.Engine.now eng)
      | Gpu_device -> fail "discrete-scheduled map inside the persistent kernel")
    | S_copy { c_src; c_src_region; c_dst; c_dst_region } ->
      (* In-kernel array copy (the thread-parallel copy routine of Section 5.1). *)
      let len = eval env c_src_region.count in
      let t0 = E.Engine.now eng in
      E.Engine.delay eng
        (G.Kernel.memory_bound_time arch ~elems:len
           ~bytes_per_elem:(G.Kernel.stencil_bytes_per_elem ())
           ~sm_fraction:(map_fraction role) ~efficiency:1.0);
      G.Buffer.blit_strided ~src:(buf_of env c_src) ~src_pos:(eval env c_src_region.offset)
        ~src_stride:(eval env c_src_region.stride) ~dst:(buf_of env c_dst)
        ~dst_pos:(eval env c_dst_region.offset) ~dst_stride:(eval env c_dst_region.stride)
        ~count:len;
      E.Trace.add_opt (E.Engine.trace eng) ~lane ~label:"copy" ~kind:E.Trace.Compute ~t0
        ~t1:(E.Engine.now eng)
    | S_lib node -> exec_nv_node env node
    | S_cond { cond; then_ } -> if eval_cond env cond then List.iter exec then_
    | S_role { role = r; body } -> (
      match (role, r) with
      | Role_all, _ | Role_comm, Comm_role | Role_compute, Compute_role ->
        List.iter exec body
      | Role_comm, Compute_role | Role_compute, Comm_role -> ())
    | S_grid_sync -> G.Coop.sync grid
  in
  exec

(* Statements outside any S_role belong to the compute group under the
   specialized schedule; the comm group only executes its own regions and
   the barriers. *)
let stmt_visible_to ~role stmt =
  match (role, stmt) with
  | Role_all, _ | _, S_grid_sync | _, S_role _ -> true
  | Role_comm, (S_map _ | S_copy _ | S_lib _ | S_cond _) -> false
  | Role_compute, _ -> true

let clone_env env = { env with vars = Hashtbl.copy env.vars; reqs = Hashtbl.create 16 }

let build_persistent ?backed (p : Persistent_fusion.t) =
  let sdfg = p.Persistent_fusion.base in
  let store = ref None in
  let specialized =
    List.exists (fun st -> contains_role st.Sdfg.stmts) p.Persistent_fusion.body
  in
  let program ctx =
    let rt = make_runtime ?backed sdfg ctx in
    store := Some rt;
    let blocks = G.Arch.co_resident_blocks (G.Runtime.arch ctx) in
    G.Host.parallel_join ctx ~name:sdfg.sdfg_name (fun rank ->
        let env = make_env rt ~rank sdfg in
        let stream =
          G.Stream.create (G.Runtime.engine ctx) ~dev:(G.Runtime.device ctx rank) ~name:"s0"
        in
        (* Prologue stays host-controlled (initialization). *)
        List.iter (exec_state_baseline env stream) p.Persistent_fusion.prologue;
        let loop = p.Persistent_fusion.loop in
        let role_body role env grid =
          let exec = exec_stmt_persistent env grid ~role in
          Hashtbl.replace env.vars loop.Loop.l_var (eval env loop.Loop.l_init);
          while eval_cond env loop.Loop.l_cond do
            List.iter
              (fun st ->
                List.iter
                  (fun stmt -> if stmt_visible_to ~role stmt then exec stmt)
                  st.Sdfg.stmts)
              p.Persistent_fusion.body;
            Hashtbl.replace env.vars loop.Loop.l_var (eval env loop.Loop.l_update)
          done
        in
        let roles =
          if specialized then
            [
              ("comm", role_body Role_comm (clone_env env));
              ("df", role_body Role_compute (clone_env env));
            ]
          else [ ("df", role_body Role_all env) ]
        in
        let dev = G.Runtime.device ctx rank in
        let finished =
          G.Runtime.launch_cooperative ctx ~dev ~name:(sdfg.sdfg_name ^ "_persistent") ~blocks
            ~threads_per_block:1024 ~roles
        in
        G.Runtime.join_kernel ctx ~roles:(List.length roles) finished;
        Nv.quiet rt.nv ~pe:rank;
        List.iter (exec_state_baseline env stream) p.Persistent_fusion.epilogue)
  in
  let read_array name ~pe =
    match !store with
    | None -> None
    | Some rt -> Option.map (fun s -> Nv.local s ~pe) (Hashtbl.find_opt rt.syms name)
  in
  { program; read_array }
