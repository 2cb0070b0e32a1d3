module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Mpi = Cpufree_comm.Mpi
module Time = E.Time
module S = Symbolic
open Sdfg

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Lowering_error m)) fmt

let init_value idx =
  let x = float_of_int idx in
  sin (x *. 0.011) +. (0.5 *. cos (x *. 0.017))

type built = {
  program : Cpufree_core.Measure.program;
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

(* One rank's view of the program while it is lowered: every name resolves
   here once, never while the program runs. [rank], [size] and the symbols
   no edge or loop assigns are constants; an assigned variable is a slot. *)
type lowering = {
  rt : runtime;
  rank : int;
  resolve : string -> S.binding option;
  slot_of : string -> int;
  initial : S.slots;  (** assigned variables that are also program symbols *)
  request_of : string -> int;
  requests : int;
}

(* What the lowered closures of one rank (or one persistent-kernel role)
   read and write: the assigned variables, the MPI requests in flight, and
   whether the current host state touched the GPU. *)
type env = { slots : S.slots; reqs : Mpi.request option array; mutable used_gpu : bool }

(* A fresh environment whose variables start as copies of [slots]. *)
let env_from lw slots =
  { slots = S.copy_slots slots; reqs = Array.make lw.requests None; used_gpu = false }

let lowering rt (sdfg : Sdfg.t) ~rank ~assigned ~requests =
  let index names =
    let t = Hashtbl.create 8 in
    List.iter (fun n -> if not (Hashtbl.mem t n) then Hashtbl.replace t n (Hashtbl.length t)) names;
    t
  in
  let slots = index assigned and reqs = index requests in
  (* A symbol declared twice takes its last value. *)
  let fixed = Hashtbl.create 16 in
  List.iter (fun (s, v) -> Hashtbl.replace fixed s v) sdfg.symbols;
  let initial = S.make_slots (Hashtbl.length slots) in
  Hashtbl.iter (fun v i -> Option.iter (S.assign initial i) (Hashtbl.find_opt fixed v)) slots;
  let size = G.Runtime.num_gpus rt.ctx in
  let resolve = function
    | "rank" -> Some (S.Fixed rank)
    | "size" -> Some (S.Fixed size)
    | s -> (
      match Hashtbl.find_opt slots s with
      | Some i -> Some (S.Slot i)
      | None -> Option.map (fun v -> S.Fixed v) (Hashtbl.find_opt fixed s))
  in
  {
    rt;
    rank;
    resolve;
    slot_of = Hashtbl.find slots;
    initial;
    request_of = Hashtbl.find reqs;
    requests = Hashtbl.length reqs;
  }

let staged lw e = S.compile ~resolve:lw.resolve e
let ex lw e = S.force (staged lw e)

(* [f] of a staged value, folded when the value is known and [f] returns;
   otherwise [f] runs (and raises) when the program does. *)
let stage_map x f =
  match x with
  | S.Now v -> ( match f v with r -> S.Now r | exception _ -> S.Later (fun _ -> f v))
  | S.Later g -> S.Later (fun s -> f (g s))

let noop () = ()

let sym_of lw name =
  match Hashtbl.find_opt lw.rt.syms name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown array %s" name)

let buf_of lw name = Result.map (fun s -> Nv.local s ~pe:lw.rank) (sym_of lw name)

let sig_of lw name =
  match Hashtbl.find_opt lw.rt.sigs name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown signal %s" name)

let sig_kind = function Sig_set -> Nv.Signal_set | Sig_add -> Nv.Signal_add

let assignment lw env v e =
  let i = lw.slot_of v and f = ex lw e in
  fun () -> S.assign env.slots i (f env.slots)

(* --- map semantics ----------------------------------------------------- *)

(* Only called once every array of [sem] resolved to a real buffer. *)
let rec lower_sem lw env sem =
  let buf name = Result.get_ok (buf_of lw name) in
  let slots = env.slots in
  match sem with
  | Jacobi1d { src; dst } ->
    let s = buf src and d = buf dst in
    fun i ->
      G.Buffer.set d i
        ((G.Buffer.get s (i - 1) +. G.Buffer.get s i +. G.Buffer.get s (i + 1)) /. 3.0)
  | Jacobi2d { src; dst; row_width; col_lo; col_hi } ->
    let s = buf src and d = buf dst in
    let row_width = ex lw row_width and col_lo = ex lw col_lo and col_hi = ex lw col_hi in
    fun i ->
      let w = row_width slots in
      let row = i * w in
      for c = col_lo slots to col_hi slots do
        let k = row + c in
        G.Buffer.set d k
          (0.25
          *. (G.Buffer.get s (k - w) +. G.Buffer.get s (k + w) +. G.Buffer.get s (k - 1)
             +. G.Buffer.get s (k + 1)))
      done
  | Jacobi3d { src; dst; row_width; plane_width; ny } ->
    let s = buf src and d = buf dst in
    let row_width = ex lw row_width and plane_width = ex lw plane_width and ny = ex lw ny in
    fun i ->
      let w = row_width slots and pw = plane_width slots in
      let ny = ny slots in
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
  | Fill { dst; value } ->
    let d = buf dst in
    fun i -> G.Buffer.set d i value
  | Init_global { dst; global_off } ->
    let d = buf dst and global_off = ex lw global_off in
    fun i -> G.Buffer.set d i (init_value (global_off slots + i))
  | Init_global2d { dst; row_width; global_row0; global_row_width; global_col0 } ->
    let d = buf dst in
    let row_width = ex lw row_width and global_row_width = ex lw global_row_width in
    let global_row0 = ex lw global_row0 and global_col0 = ex lw global_col0 in
    fun i ->
      let w = row_width slots in
      let grw = global_row_width slots in
      let gr = global_row0 slots + i and gc = global_col0 slots in
      for c = 0 to w - 1 do
        G.Buffer.set d ((i * w) + c) (init_value ((gr * grw) + gc + c))
      done
  | Multi sems ->
    let fs = Array.of_list (List.map (lower_sem lw env) sems) in
    fun i -> Array.iter (fun f -> f i) fs

(* The map's per-index loop. Whether it moves data at all is decided here,
   once, from the map's arrays in operand order: the first that does not
   resolve fails the map, and a phantom one before that makes the whole map
   a data no-op. *)
let map_body lw env (m : map_stmt) =
  let rec has_data = function
    | [] -> Ok true
    | a :: rest -> (
      match buf_of lw a with
      | Error _ as e -> e
      | Ok b -> if G.Buffer.is_phantom b then Ok false else has_data rest)
  in
  match has_data (arrays (operands (S_map m))) with
  | Ok false -> noop
  | Error msg -> fun () -> raise (Lowering_error msg)
  | Ok true ->
    let apply = lower_sem lw env m.m_sem and flo = ex lw m.m_lo and fhi = ex lw m.m_hi in
    fun () ->
      let lo = flo env.slots and hi = fhi env.slots in
      for i = lo to hi do
        apply i
      done

let map_elems lw (m : map_stmt) =
  match (staged lw m.m_lo, staged lw m.m_hi, staged lw m.m_work) with
  | S.Now lo, S.Now hi, _ when hi < lo -> S.Now 0
  | S.Now lo, S.Now hi, S.Now w -> S.Now ((hi - lo + 1) * w)
  | lo, hi, w ->
    let flo = S.force lo and fhi = S.force hi and fw = S.force w in
    S.Later
      (fun s ->
        let lo = flo s and hi = fhi s in
        if hi < lo then 0 else (hi - lo + 1) * fw s)

let stencil_time arch ~sm_fraction ~efficiency elems =
  if elems = 0 then Time.zero
  else
    G.Kernel.memory_bound_time arch ~elems ~bytes_per_elem:(G.Kernel.stencil_bytes_per_elem ())
      ~sm_fraction ~efficiency

(* --- step programs ---------------------------------------------------------- *)

(* A persistent role, and a host rank's walk of the state graph, run as a
   {!E.Program}: guards, the time loop and interstate edges are jumps, and
   a guard reads the rank's variable slots. *)
open E.Program

type instr = S.slots E.Program.instr

(* A name that does not resolve lowers to an instruction that fails when
   it runs, so a bad statement no rank reaches does not fail the program. *)
let fails m = Do (fun () -> raise (Lowering_error m))
let ( let* ) r k = match r with Ok x -> k x | Error m -> fails m

(* [body] under [cond], folded when the condition is known. *)
let lower_cond lw cond body =
  match S.compile_cond ~resolve:lw.resolve cond with
  | S.Now true -> body
  | S.Now false -> []
  | S.Later c -> guard c body

(* --- device-side library nodes (persistent backend) -------------------- *)

let lower_nv_node lw env node =
  let nv = lw.rt.nv and from_pe = lw.rank and slots = env.slots in
  let ex = ex lw in
  match node with
  | Nv_putmem { src; src_region; dst; dst_region; to_pe } ->
    let* dst = sym_of lw dst in
    let* src = buf_of lw src in
    let to_pe = ex to_pe and src_pos = ex src_region.offset in
    let dst_pos = ex dst_region.offset and len = ex src_region.count in
    Wait
      (fun k ->
        Nv.putmem_nbi_k nv ~from_pe ~to_pe:(to_pe slots) ~src ~src_pos:(src_pos slots) ~dst
          ~dst_pos:(dst_pos slots) ~len:(len slots) k)
  | Nv_putmem_signal { src; src_region; dst; dst_region; to_pe; signal; sig_kind = k; sig_value }
    ->
    let* sig_var = sig_of lw signal in
    let* dst = sym_of lw dst in
    let* src = buf_of lw src in
    let to_pe = ex to_pe and src_pos = ex src_region.offset in
    let dst_pos = ex dst_region.offset and len = ex src_region.count in
    let sig_op = sig_kind k and sig_value = ex sig_value in
    Wait
      (fun k ->
        Nv.putmem_signal_nbi_k nv ~from_pe ~to_pe:(to_pe slots) ~src ~src_pos:(src_pos slots)
          ~dst ~dst_pos:(dst_pos slots) ~len:(len slots) ~sig_var ~sig_op
          ~sig_value:(sig_value slots) k)
  | Nv_iput { src; src_region; dst; dst_region; to_pe } ->
    let* dst = sym_of lw dst in
    let* src = buf_of lw src in
    let to_pe = ex to_pe and src_pos = ex src_region.offset and src_stride = ex src_region.stride in
    let dst_pos = ex dst_region.offset and dst_stride = ex dst_region.stride in
    let count = ex src_region.count in
    Wait
      (fun k ->
        Nv.iput_nbi_k nv ~from_pe ~to_pe:(to_pe slots) ~src ~src_pos:(src_pos slots)
          ~src_stride:(src_stride slots) ~dst ~dst_pos:(dst_pos slots)
          ~dst_stride:(dst_stride slots) ~count:(count slots) k)
  | Nv_p { src; src_off; dst; dst_off; to_pe } ->
    let* dst = sym_of lw dst in
    let* src = buf_of lw src in
    let src_off = ex src_off and dst_off = ex dst_off and to_pe = ex to_pe in
    Wait
      (fun k ->
        let value = G.Buffer.get src (src_off slots) in
        Nv.p_k nv ~from_pe ~to_pe:(to_pe slots) ~value ~dst ~dst_pos:(dst_off slots) k)
  | Nv_signal_op { signal; sig_kind = k; sig_value; to_pe } ->
    let* sig_var = sig_of lw signal in
    let to_pe = ex to_pe and sig_op = sig_kind k and sig_value = ex sig_value in
    Wait
      (fun k ->
        Nv.signal_op_remote_k nv ~from_pe ~to_pe:(to_pe slots) ~sig_var ~sig_op
          ~sig_value:(sig_value slots) k)
  | Nv_signal_wait { signal; ge_value; from_pe = sender } ->
    let* sig_var = sig_of lw signal in
    let ge_value = ex ge_value and sender = ex sender in
    Wait
      (fun k ->
        Nv.signal_wait_ge_k nv ~expect_from:(sender slots) ~pe:from_pe ~sig_var
          (ge_value slots) k)
  | Nv_quiet -> Wait (fun k -> Nv.quiet_k nv ~pe:from_pe k)
  | Nv_put _ -> fails "unexpanded Nv_put reached the backend (run Transforms.expand_nvshmem)"
  | Mpi_isend _ | Mpi_irecv _ | Mpi_waitall _ -> fails "MPI node inside a persistent kernel"

(* --- interstate graph -------------------------------------------------- *)

(* The state graph indexed once: node [i] is the [i]th distinct state name
   the walk can reach (node 0 is the start state, then every edge target),
   with the first state of that name and its out-edges in declaration
   order. *)
type graph = { names : string array; states : state option array; out : (edge * int) list array }

let index_graph (sdfg : Sdfg.t) =
  let ids = Hashtbl.create 16 in
  let id n =
    match Hashtbl.find_opt ids n with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids n i;
      i
  in
  ignore (id sdfg.start_state : int);
  let edges = List.map (fun e -> (e, id e.e_dst)) sdfg.edges in
  let names = Array.make (Hashtbl.length ids) "" in
  Hashtbl.iter (fun n i -> names.(i) <- n) ids;
  {
    names;
    states = Array.map (find_state sdfg) names;
    out = Array.map (fun n -> List.filter (fun (e, _) -> String.equal e.e_src n) edges) names;
  }

(* A rank's walk of the graph as one step program: each node's state, then
   its out-edges in order — the first whose condition holds runs its
   assignments and jumps to its target's start; when none holds, the walk
   runs off the end. The start state comes first. A walk that visits more
   than ten million states fails. *)
type asm = Ins of instr | Goto of int | Goto_end

let walk_program graph lw env ~state =
  let visits = ref 0 in
  let visit =
    Do
      (fun () ->
        incr visits;
        if !visits > 10_000_000 then fail "interstate walk did not terminate")
  in
  let rec edges = function
    | [] -> [ Goto_end ]
    | (e, dst) :: rest -> (
      let take =
        List.map (fun (v, x) -> Ins (Do (assignment lw env v x))) e.e_assign @ [ Goto dst ]
      in
      match Option.map (S.compile_cond ~resolve:lw.resolve) e.e_cond with
      | None | Some (S.Now true) -> take
      | Some (S.Now false) -> edges rest
      | Some (S.Later c) -> (Ins (Skip_unless (c, List.length take)) :: take) @ edges rest)
  in
  let blocks =
    Array.mapi
      (fun i st ->
        let body =
          match st with
          | Some st -> state st
          | None -> [ fails (Printf.sprintf "missing state %s" graph.names.(i)) ]
        in
        (Ins visit :: List.map (fun x -> Ins x) body) @ edges graph.out.(i))
      graph.states
  in
  let starts = Array.make (Array.length blocks) 0 and len = ref 0 in
  Array.iteri
    (fun i b ->
      starts.(i) <- !len;
      len := !len + List.length b)
    blocks;
  let n = !len in
  Array.of_list
    (List.mapi
       (fun pc -> function
         | Ins x -> x
         | Goto j -> Jump (starts.(j) - pc)
         | Goto_end -> Jump (n - pc))
       (List.concat (Array.to_list blocks)))

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

let read_array store name ~pe =
  match !store with
  | None -> None
  | Some rt -> Option.map (fun s -> Nv.local s ~pe) (Hashtbl.find_opt rt.syms name)

(* MPI request names of a list of states, for their slots. *)
let request_names states =
  List.concat_map
    (fun st ->
      List.filter_map
        (function { kind = Request { req; _ }; _ } -> Some req | _ -> None)
        (List.concat_map operands (walk st.stmts)))
    states

(* --- baseline (CPU-controlled) backend --------------------------------- *)

(* A map left on [Sequential] schedule executes on the host CPU. Host DRAM
   streams roughly an order of magnitude below device HBM for these
   memory-bound stencils, so charge the device memory-bound time scaled by
   this factor. Nothing in the hand-built pipelines reaches this path (they
   all run [Transforms.gpu_transform] first); it exists so the autotuner's
   "offload off" candidate has an honest cost instead of a free ride. *)
let host_dram_slowdown = 12.0

(* One host state as instructions: a GPU map waits out its launch call, a
   host map its cost, and each MPI call and stream synchronize its call. *)
let lower_host_state lw env stream st =
  let ctx = lw.rt.ctx and mpi = lw.rt.mpi and rank = lw.rank and slots = env.slots in
  let device_time m =
    stage_map (map_elems lw m)
      (stencil_time (G.Runtime.arch ctx) ~sm_fraction:1.0 ~efficiency:1.0)
  in
  let mpi_region arr (r : region) =
    match buf_of lw arr with
    | Error m -> fun _ -> raise (Lowering_error m)
    | Ok buf ->
      let pos = ex lw r.offset and stride = ex lw r.stride and count = ex lw r.count in
      fun s -> { Mpi.buf; pos = pos s; stride = stride s; count = count s }
  in
  let sync = Wait (G.Runtime.stream_synchronize_k ctx stream) in
  let rec lower = function
    | S_map m -> (
      match m.m_schedule with
      | Gpu_device ->
        let cost = S.force (device_time m) and run_map = map_body lw env m in
        let body k =
          run_map ();
          k ()
        in
        let name = "map_" ^ m.m_var in
        [
          Wait
            (fun k ->
              env.used_gpu <- true;
              G.Runtime.launch_k ctx ~stream ~name ~cost:(cost slots) body k);
        ]
      | Sequential ->
        let cost =
          S.force (stage_map (device_time m) (fun t -> Time.scale t host_dram_slowdown))
        in
        guard (fun s -> Time.(cost s > zero)) [ After cost ] @ [ Do (map_body lw env m) ]
      | Gpu_persistent -> [ fails "persistent-scheduled map in the baseline backend" ])
    | S_lib (Mpi_isend { arr; region; dst_rank; tag; req }) ->
      let region = mpi_region arr region and dst = ex lw dst_rank and r = lw.request_of req in
      [
        (* DaCe generates a stream synchronize before host communication so
           the device data is visible (Fig. 5.1). *)
        sync;
        Wait
          (fun k ->
            env.reqs.(r) <- Some (Mpi.isend_k mpi ~rank ~dst:(dst slots) ~tag (region slots) k));
      ]
    | S_lib (Mpi_irecv { arr; region; src_rank; tag; req }) ->
      let region = mpi_region arr region and src = ex lw src_rank and r = lw.request_of req in
      [
        Wait
          (fun k ->
            env.reqs.(r) <- Some (Mpi.irecv_k mpi ~rank ~src:(src slots) ~tag (region slots) k));
      ]
    | S_lib (Mpi_waitall names) ->
      let reqs = List.map (fun n -> (n, lw.request_of n)) names in
      [
        Wait
          (fun k ->
            Mpi.waitall_k mpi
              (List.map
                 (fun (n, r) ->
                   match env.reqs.(r) with
                   | Some r -> r
                   | None -> fail "MPI_Waitall on unknown request %s" n)
                 reqs)
              k);
      ]
    | S_lib
        ( Nv_put _ | Nv_putmem _ | Nv_putmem_signal _ | Nv_iput _ | Nv_p _ | Nv_signal_op _
        | Nv_signal_wait _ | Nv_quiet ) -> [ fails "NVSHMEM node in host (baseline) code" ]
    | S_cond { cond; then_ } -> lower_cond lw cond (List.concat_map lower then_)
    | S_role { body; _ } -> List.concat_map lower body
    | S_grid_sync -> [ sync ]
  in
  (Do (fun () -> env.used_gpu <- false) :: List.concat_map lower st.stmts)
  @ [
      (* DaCe closes every GPU state with a stream synchronize. *)
      Wait (fun k -> if env.used_gpu then G.Runtime.stream_synchronize_k ctx stream k else k ());
    ]

let build_baseline ?backed sdfg =
  let store = ref None in
  let graph = index_graph sdfg in
  let assigned = List.concat_map (fun e -> List.map fst e.e_assign) sdfg.edges in
  let requests = request_names sdfg.states in
  let program ctx k =
    let rt = make_runtime ?backed sdfg ctx in
    store := Some rt;
    G.Host.parallel_join_k ctx ~name:sdfg.sdfg_name
      (fun rank ->
        let lw = lowering rt sdfg ~rank ~assigned ~requests in
        let env = env_from lw lw.initial in
        let eng = G.Runtime.engine ctx in
        let stream = G.Stream.create eng ~dev:(G.Runtime.device ctx rank) ~name:"s0" in
        run eng (walk_program graph lw env ~state:(lower_host_state lw env stream)) env.slots)
      k
  in
  { program; read_array = read_array store }

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

let contains_role stmts = List.exists (function S_role _ -> true | _ -> false) (walk stmts)

(* Statements outside any S_role belong to the compute group under the
   specialized schedule; the comm group only executes its own regions and
   the barriers. *)
let stmt_visible_to ~role stmt =
  match (role, stmt) with
  | Role_all, _ | _, S_grid_sync | _, S_role _ -> true
  | Role_comm, (S_map _ | S_lib _ | S_cond _) -> false
  | Role_compute, _ -> true

(* One statement of a role as instructions; a map is a [Compute]. *)
let lower_kernel_stmt lw env grid ~role =
  let ctx = lw.rt.ctx in
  let arch = G.Runtime.arch ctx in
  let sm_fraction = map_fraction role and threads = G.Coop.threads_per_block grid in
  (* Span lane and labels are built only when the engine records a trace. *)
  let lane =
    lazy
      (G.Device.lane (G.Runtime.device ctx lw.rank)
         (match role with Role_comm -> "comm" | Role_all | Role_compute -> "persistent"))
  in
  let rec lower = function
    | S_map m -> (
      match m.m_schedule with
      | Gpu_persistent | Sequential ->
        let cost =
          S.force
            (stage_map (map_elems lw m) (fun elems ->
                 let efficiency = G.Kernel.tiling_efficiency arch ~elems ~threads in
                 stencil_time arch ~sm_fraction ~efficiency elems))
        in
        [ Compute { cost; body = map_body lw env m; lane; label = "map_" ^ m.m_var } ]
      | Gpu_device -> [ fails "discrete-scheduled map inside the persistent kernel" ])
    | S_lib node -> [ lower_nv_node lw env node ]
    | S_cond { cond; then_ } -> lower_cond lw cond (List.concat_map lower then_)
    | S_role { role = r; body } -> (
      match (role, r) with
      | Role_all, _ | Role_comm, Comm_role | Role_compute, Compute_role ->
        List.concat_map lower body
      | Role_comm, Compute_role | Role_compute, Comm_role -> [])
    | S_grid_sync -> [ Wait (fun k -> G.Coop.sync_k grid k) ]
  in
  lower

(* One role's share of the fused loop as a step program, lowered when the
   role starts (the grid handle fixes its thread count): the loop's init,
   then its condition guarding the body, the update and a jump back. *)
let lower_role lw env grid ~role (p : Persistent_fusion.t) =
  let lower = lower_kernel_stmt lw env grid ~role in
  let body =
    List.concat_map
      (fun st ->
        List.concat_map
          (fun stmt -> if stmt_visible_to ~role stmt then lower stmt else [])
          st.Sdfg.stmts)
      p.Persistent_fusion.body
  in
  let loop = p.Persistent_fusion.loop in
  let init = assignment lw env loop.Loop.l_var loop.Loop.l_init in
  let update = assignment lw env loop.Loop.l_var loop.Loop.l_update in
  let continue = S.force (S.compile_cond ~resolve:lw.resolve loop.Loop.l_cond) in
  Array.of_list (E.Program.loop ~init ~continue ~update body)

let build_persistent ?backed (p : Persistent_fusion.t) =
  let sdfg = p.Persistent_fusion.base in
  let store = ref None in
  let specialized =
    List.exists (fun st -> contains_role st.Sdfg.stmts) p.Persistent_fusion.body
  in
  let assigned = [ p.Persistent_fusion.loop.Loop.l_var ] in
  let requests = request_names (p.Persistent_fusion.prologue @ p.Persistent_fusion.epilogue) in
  let program ctx k =
    let rt = make_runtime ?backed sdfg ctx in
    store := Some rt;
    let blocks = G.Arch.co_resident_blocks (G.Runtime.arch ctx) in
    G.Host.parallel_join_k ctx ~name:sdfg.sdfg_name
      (fun rank ->
        let lw = lowering rt sdfg ~rank ~assigned ~requests in
        let env = env_from lw lw.initial in
        let eng = G.Runtime.engine ctx in
        let stream = G.Stream.create eng ~dev:(G.Runtime.device ctx rank) ~name:"s0" in
        let host_states states = List.concat_map (lower_host_state lw env stream) states in
        let dev = G.Runtime.device ctx rank in
        (* A role is a step program, started after the teardown delay. The
           roles copy the rank's variables when the launch runs, after the
           prologue. *)
        let role_body role env grid = run eng (lower_role lw env grid ~role p) env.slots in
        let roles () =
          if specialized then
            [
              ("comm", role_body Role_comm (env_from lw env.slots));
              ("df", role_body Role_compute (env_from lw env.slots));
            ]
          else [ ("df", role_body Role_all env) ]
        in
        let launch_and_join k =
          let roles = roles () in
          G.Runtime.launch_cooperative_k ctx ~dev ~name:(sdfg.sdfg_name ^ "_persistent") ~blocks
            ~threads_per_block:1024 ~roles (fun finished ->
              E.Sync.Flag.wait_ge_k finished (List.length roles) k)
        in
        (* The prologue and epilogue stay host-controlled (initialization);
           the whole rank is one program. *)
        run eng
          (Array.of_list
             (host_states p.Persistent_fusion.prologue
             @ [ Wait launch_and_join; Wait (Nv.quiet_k rt.nv ~pe:rank) ]
             @ host_states p.Persistent_fusion.epilogue))
          env.slots)
      k
  in
  { program; read_array = read_array store }
