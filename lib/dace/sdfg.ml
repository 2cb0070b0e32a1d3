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
  | Nv_signal_wait of { signal : string; ge_value : Symbolic.expr }
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

let map_stmts t ~f =
  let rec rewrite stmt =
    match stmt with
    | S_cond { cond; then_ } -> [ S_cond { cond; then_ = List.concat_map rewrite then_ } ]
    | S_role { role; body } -> [ S_role { role; body = List.concat_map rewrite body } ]
    | S_map _ | S_lib _ | S_grid_sync -> f stmt
  in
  map_states t ~f:(fun st -> { st with stmts = List.concat_map rewrite st.stmts })

let arrays_of_libnode = function
  | Mpi_isend { arr; _ } | Mpi_irecv { arr; _ } -> [ arr ]
  | Mpi_waitall _ -> []
  | Nv_put { src; dst; _ }
  | Nv_putmem { src; dst; _ }
  | Nv_putmem_signal { src; dst; _ }
  | Nv_iput { src; dst; _ }
  | Nv_p { src; dst; _ } -> [ src; dst ]
  | Nv_signal_op _ | Nv_signal_wait _ | Nv_quiet -> []

let pp_summary fmt t =
  Format.fprintf fmt "sdfg %s: %d arrays, %d signals, %d states, %d edges, start=%s"
    t.sdfg_name (List.length t.arrays)
    (List.length t.sdfg_signals)
    (List.length t.states) (List.length t.edges) t.start_state
