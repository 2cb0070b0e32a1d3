type storage = Host_heap | Gpu_global | Gpu_nvshmem
type schedule = Sequential | Gpu_device | Gpu_persistent

type array_desc = {
  arr_name : string;
  arr_size : Symbolic.expr;
  storage : storage;
}

type region = { offset : Symbolic.expr; stride : Symbolic.expr; count : Symbolic.expr }

let contiguous ~offset ~count = { offset; stride = Symbolic.int 1; count }
let single ~offset = { offset; stride = Symbolic.int 1; count = Symbolic.int 1 }

type map_sem =
  | Jacobi1d of { src : string; dst : string }
  | Jacobi2d of {
      src : string;
      dst : string;
      row_width : Symbolic.expr;
      col_lo : Symbolic.expr;
      col_hi : Symbolic.expr;
    }
  | Jacobi3d of {
      src : string;
      dst : string;
      row_width : Symbolic.expr;
      plane_width : Symbolic.expr;
      ny : Symbolic.expr;
    }
  | Fill of { dst : string; value : float }
  | Init_global of { dst : string; global_off : Symbolic.expr }
  | Init_global2d of {
      dst : string;
      row_width : Symbolic.expr;
      global_row0 : Symbolic.expr;
      global_row_width : Symbolic.expr;
      global_col0 : Symbolic.expr;
    }
  | Multi of map_sem list

type map_stmt = {
  m_var : string;
  m_lo : Symbolic.expr;
  m_hi : Symbolic.expr;
  m_schedule : schedule;
  m_sem : map_sem;
  m_work : Symbolic.expr;
}

type signal_kind = Sig_set | Sig_add

type libnode =
  | Mpi_isend of { arr : string; region : region; dst_rank : Symbolic.expr; tag : int; req : string }
  | Mpi_irecv of { arr : string; region : region; src_rank : Symbolic.expr; tag : int; req : string }
  | Mpi_waitall of string list
  | Nv_put of {
      src : string;
      src_region : region;
      dst : string;
      dst_region : region;
      to_pe : Symbolic.expr;
      signal : (string * signal_kind * Symbolic.expr) option;
    }
  | Nv_putmem of { src : string; src_region : region; dst : string; dst_region : region; to_pe : Symbolic.expr }
  | Nv_putmem_signal of {
      src : string;
      src_region : region;
      dst : string;
      dst_region : region;
      to_pe : Symbolic.expr;
      signal : string;
      sig_kind : signal_kind;
      sig_value : Symbolic.expr;
    }
  | Nv_iput of { src : string; src_region : region; dst : string; dst_region : region; to_pe : Symbolic.expr }
  | Nv_p of { src : string; src_off : Symbolic.expr; dst : string; dst_off : Symbolic.expr; to_pe : Symbolic.expr }
  | Nv_signal_op of { signal : string; sig_kind : signal_kind; sig_value : Symbolic.expr; to_pe : Symbolic.expr }
  | Nv_signal_wait of { signal : string; ge_value : Symbolic.expr; from_pe : Symbolic.expr }
  | Nv_quiet

type role_kind = Comm_role | Compute_role

type stmt =
  | S_map of map_stmt
  | S_lib of libnode
  | S_cond of { cond : Symbolic.cond; then_ : stmt list }
  | S_role of { role : role_kind; body : stmt list }
  | S_grid_sync

type state = { st_name : string; stmts : stmt list }

type edge = {
  e_src : string;
  e_dst : string;
  e_cond : Symbolic.cond option;
  e_assign : (string * Symbolic.expr) list;
}

type t = {
  sdfg_name : string;
  arrays : array_desc list;
  sdfg_signals : string list;
  states : state list;
  edges : edge list;
  start_state : string;
  symbols : (string * int) list;
}

let find_array t name = List.find_opt (fun a -> String.equal a.arr_name name) t.arrays
let find_state t name = List.find_opt (fun s -> String.equal s.st_name name) t.states
let has_signal t name = List.exists (String.equal name) t.sdfg_signals
let out_edges t name = List.filter (fun e -> String.equal e.e_src name) t.edges
let map_array t ~f = { t with arrays = List.map f t.arrays }
let map_states t ~f = { t with states = List.map f t.states }

let rec walk stmts =
  List.concat_map
    (fun stmt ->
      stmt
      ::
      (match stmt with
      | S_cond { then_ = body; _ } | S_role { body; _ } -> walk body
      | S_map _ | S_lib _ | S_grid_sync -> []))
    stmts

let rec map_bodies ~f stmts =
  f
    (List.map
       (function
         | S_cond { cond; then_ } -> S_cond { cond; then_ = map_bodies ~f then_ }
         | S_role { role; body } -> S_role { role; body = map_bodies ~f body }
         | (S_map _ | S_lib _ | S_grid_sync) as stmt -> stmt)
       stmts)

let map_stmts t ~f =
  let leaf = function (S_cond _ | S_role _) as stmt -> [ stmt ] | stmt -> f stmt in
  map_states t ~f:(fun st -> { st with stmts = map_bodies ~f:(List.concat_map leaf) st.stmts })

let is_nvshmem = function
  | Nv_put _ | Nv_putmem _ | Nv_putmem_signal _ | Nv_iput _ | Nv_p _ | Nv_signal_op _
  | Nv_signal_wait _ | Nv_quiet -> true
  | Mpi_isend _ | Mpi_irecv _ | Mpi_waitall _ -> false

type access = Read | Write

type operand_kind =
  | Data of { array : string; access : access; symmetric : bool }
  | Signal of string
  | Expr of Symbolic.expr
  | Request of { req : string; access : access }

type operand = { label : string; kind : operand_kind }

let expr label e = { label; kind = Expr e }

let rec sem_operands ~var sem =
  (* A map semantics reads [src] (when it has one), writes [dst] and takes
     the expressions [es]. *)
  let node name ?src dst es =
    let label = name ^ " map(" ^ var ^ ")" in
    let data access array = { label; kind = Data { array; access; symmetric = false } } in
    Option.to_list (Option.map (data Read) src) @ (data Write dst :: List.map (expr label) es)
  in
  match sem with
  | Jacobi1d { src; dst } -> node "jacobi1d" ~src dst []
  | Jacobi2d { src; dst; row_width; col_lo; col_hi } ->
    node "jacobi2d" ~src dst [ row_width; col_lo; col_hi ]
  | Jacobi3d { src; dst; row_width; plane_width; ny } ->
    node "jacobi3d" ~src dst [ row_width; plane_width; ny ]
  | Fill { dst; _ } -> node "fill" dst []
  | Init_global { dst; global_off } -> node "init" dst [ global_off ]
  | Init_global2d { dst; row_width; global_row0; global_row_width; global_col0 } ->
    node "init2d" dst [ row_width; global_row0; global_row_width; global_col0 ]
  | Multi sems -> List.concat_map (sem_operands ~var) sems

let lib_label = function
  | Mpi_isend _ -> "MPI_Isend"
  | Mpi_irecv _ -> "MPI_Irecv"
  | Mpi_waitall _ -> "MPI_Waitall"
  | Nv_put _ -> "nv_put"
  | Nv_putmem _ -> "nvshmem_putmem"
  | Nv_putmem_signal _ -> "nvshmemx_putmem_signal"
  | Nv_iput _ -> "nvshmem_iput"
  | Nv_p _ -> "nvshmem_p"
  | Nv_signal_op _ -> "nvshmem_signal_op"
  | Nv_signal_wait _ -> "nvshmem_signal_wait"
  | Nv_quiet -> "nvshmem_quiet"

let lib_operands node =
  let label = lib_label node in
  let symmetric = is_nvshmem node in
  let data access array = { label; kind = Data { array; access; symmetric } } in
  let e = expr label in
  let signal s = { label; kind = Signal s } in
  let request access req = { label; kind = Request { req; access } } in
  let put ~src ~dst (s : region) (d : region) to_pe rest =
    data Read src :: data Write dst :: e s.offset :: e s.stride :: e s.count :: e d.offset
    :: e d.stride :: e d.count :: e to_pe :: rest
  in
  match node with
  | Mpi_isend { arr; region = r; dst_rank; req; _ } ->
    [ data Read arr; e r.offset; e r.stride; e r.count; e dst_rank; request Write req ]
  | Mpi_irecv { arr; region = r; src_rank; req; _ } ->
    [ data Write arr; e r.offset; e r.stride; e r.count; e src_rank; request Write req ]
  | Mpi_waitall reqs -> List.map (request Read) reqs
  | Nv_put { src; src_region; dst; dst_region; to_pe; signal = s } ->
    put ~src ~dst src_region dst_region to_pe
      (match s with None -> [] | Some (s, _, v) -> [ signal s; e v ])
  | Nv_putmem { src; src_region; dst; dst_region; to_pe }
  | Nv_iput { src; src_region; dst; dst_region; to_pe } ->
    put ~src ~dst src_region dst_region to_pe []
  | Nv_putmem_signal { src; src_region; dst; dst_region; to_pe; signal = s; sig_value; _ } ->
    put ~src ~dst src_region dst_region to_pe [ signal s; e sig_value ]
  | Nv_p { src; src_off; dst; dst_off; to_pe } ->
    [ data Read src; data Write dst; e src_off; e dst_off; e to_pe ]
  | Nv_signal_op { signal = s; sig_value; to_pe; _ } -> [ signal s; e sig_value; e to_pe ]
  | Nv_signal_wait { signal = s; ge_value; from_pe } -> [ signal s; e ge_value; e from_pe ]
  | Nv_quiet -> []

let operands = function
  | S_map m ->
    let range = "map(" ^ m.m_var ^ ") range" in
    expr range m.m_lo :: expr range m.m_hi
    :: expr ("map(" ^ m.m_var ^ ") work") m.m_work
    :: sem_operands ~var:m.m_var m.m_sem
  | S_lib node -> lib_operands node
  | S_cond { cond = Symbolic.(Lt (a, b) | Le (a, b) | Eq (a, b) | Ge (a, b)); _ } ->
    [ expr "branch condition" a; expr "branch condition" b ]
  | S_role _ | S_grid_sync -> []

let arrays ?access ops =
  List.filter_map
    (fun o ->
      match o.kind with
      | Data d when Option.fold ~none:true ~some:(( = ) d.access) access -> Some d.array
      | Data _ | Signal _ | Expr _ | Request _ -> None)
    ops

let pp_summary fmt t =
  Format.fprintf fmt "sdfg %s: %d arrays, %d signals, %d states, %d edges, start=%s"
    t.sdfg_name (List.length t.arrays)
    (List.length t.sdfg_signals)
    (List.length t.states) (List.length t.edges) t.start_state
