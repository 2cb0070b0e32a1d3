open Sdfg

type parallelism = Data_parallel | Loop_carried

type map_info = {
  mi_state : string;
  mi_var : string;
  mi_parallelism : parallelism;
  mi_halo : int;
  mi_reads : string list;
  mi_writes : string list;
}

type comm_form = Comm_none | Comm_mpi | Comm_nvshmem | Comm_mixed

type t = {
  maps : map_info list;
  comm : comm_form;
  distributed : bool;
  halo_arrays : string list;
  stencil_states : (string * string) list;
}

(* Halo width read by one map index on the mapped axis: the stencil semantics
   read one neighbour on each side, everything else reads only its own
   index (or nothing). *)
let rec sem_halo = function
  | Jacobi1d _ | Jacobi2d _ | Jacobi3d _ -> 1
  | Fill _ | Init_global _ | Init_global2d _ -> 0
  | Multi sems -> List.fold_left (fun acc s -> max acc (sem_halo s)) 0 sems

(* A map is data-parallel when index [i] writes only positions derived from
   [i] and no written array is also read (no intra-map RAW through the
   iteration space). The stencil semantics write [dst] at [i] and read a
   [src] neighbourhood, so they are data-parallel exactly when [src] and
   [dst] are disjoint — the Jacobi two-array pattern. An in-place stencil
   ([src = dst]) is loop-carried: iteration order changes the answer. *)
let classify_sem sem =
  let writes = Transforms.sem_writes sem and reads = Transforms.sem_reads sem in
  if List.exists (fun w -> List.mem w reads) writes then Loop_carried else Data_parallel

let rec free_symbols_of_sem = function
  | Jacobi1d _ -> []
  | Jacobi2d { row_width; col_lo; col_hi; _ } ->
    List.concat_map Symbolic.free_symbols [ row_width; col_lo; col_hi ]
  | Jacobi3d { row_width; plane_width; ny; _ } ->
    List.concat_map Symbolic.free_symbols [ row_width; plane_width; ny ]
  | Fill _ -> []
  | Init_global { global_off; _ } -> Symbolic.free_symbols global_off
  | Init_global2d { row_width; global_row0; global_row_width; global_col0; _ } ->
    List.concat_map Symbolic.free_symbols
      [ row_width; global_row0; global_row_width; global_col0 ]
  | Multi sems -> List.concat_map free_symbols_of_sem sems

let free_symbols_of_region (r : region) =
  List.concat_map Symbolic.free_symbols [ r.offset; r.stride; r.count ]

let free_symbols_of_libnode = function
  | Mpi_isend { region; dst_rank; _ } -> free_symbols_of_region region @ Symbolic.free_symbols dst_rank
  | Mpi_irecv { region; src_rank; _ } -> free_symbols_of_region region @ Symbolic.free_symbols src_rank
  | Mpi_waitall _ -> []
  | Nv_put { src_region; dst_region; to_pe; signal; _ } ->
    free_symbols_of_region src_region @ free_symbols_of_region dst_region
    @ Symbolic.free_symbols to_pe
    @ (match signal with None -> [] | Some (_, _, v) -> Symbolic.free_symbols v)
  | Nv_putmem { src_region; dst_region; to_pe; _ } | Nv_iput { src_region; dst_region; to_pe; _ }
    ->
    free_symbols_of_region src_region @ free_symbols_of_region dst_region
    @ Symbolic.free_symbols to_pe
  | Nv_putmem_signal { src_region; dst_region; to_pe; sig_value; _ } ->
    free_symbols_of_region src_region @ free_symbols_of_region dst_region
    @ Symbolic.free_symbols to_pe @ Symbolic.free_symbols sig_value
  | Nv_p { src_off; dst_off; to_pe; _ } ->
    List.concat_map Symbolic.free_symbols [ src_off; dst_off; to_pe ]
  | Nv_signal_op { sig_value; to_pe; _ } ->
    Symbolic.free_symbols sig_value @ Symbolic.free_symbols to_pe
  | Nv_signal_wait { ge_value; _ } -> Symbolic.free_symbols ge_value
  | Nv_quiet -> []

let free_symbols_of_cond = function
  | Symbolic.Lt (a, b) | Symbolic.Le (a, b) | Symbolic.Eq (a, b) | Symbolic.Ge (a, b) ->
    Symbolic.free_symbols a @ Symbolic.free_symbols b

let rec free_symbols_of_stmt = function
  | S_map m ->
    List.concat_map Symbolic.free_symbols [ m.m_lo; m.m_hi; m.m_work ]
    @ free_symbols_of_sem m.m_sem
  | S_lib node -> free_symbols_of_libnode node
  | S_cond { cond; then_ } ->
    free_symbols_of_cond cond @ List.concat_map free_symbols_of_stmt then_
  | S_role { body; _ } -> List.concat_map free_symbols_of_stmt body
  | S_grid_sync -> []

let free_symbols sdfg =
  let of_states =
    List.concat_map (fun st -> List.concat_map free_symbols_of_stmt st.stmts) sdfg.states
  in
  let of_edges =
    List.concat_map
      (fun e ->
        (match e.e_cond with None -> [] | Some c -> free_symbols_of_cond c)
        @ List.concat_map (fun (_, ex) -> Symbolic.free_symbols ex) e.e_assign)
      sdfg.edges
  in
  List.sort_uniq String.compare (of_states @ of_edges)

let rec stmt_libnodes = function
  | S_lib node -> [ node ]
  | S_cond { then_; _ } -> List.concat_map stmt_libnodes then_
  | S_role { body; _ } -> List.concat_map stmt_libnodes body
  | S_map _ | S_grid_sync -> []

let libnodes sdfg =
  List.concat_map (fun st -> List.concat_map stmt_libnodes st.stmts) sdfg.states

let comm_form sdfg =
  let has_mpi = ref false and has_nv = ref false in
  List.iter
    (function
      | Mpi_isend _ | Mpi_irecv _ | Mpi_waitall _ -> has_mpi := true
      | Nv_put _ | Nv_putmem _ | Nv_putmem_signal _ | Nv_iput _ | Nv_p _ | Nv_signal_op _
      | Nv_signal_wait _ | Nv_quiet -> has_nv := true)
    (libnodes sdfg);
  match (!has_mpi, !has_nv) with
  | false, false -> Comm_none
  | true, false -> Comm_mpi
  | false, true -> Comm_nvshmem
  | true, true -> Comm_mixed

(* An SDFG is "distributed" when it is already written in SPMD per-rank form:
   it communicates, or its expressions mention the ["rank"] symbol. A
   non-distributed SDFG describes the whole global domain and is a candidate
   for {!Placement.shard_1d}. *)
let distributed sdfg = comm_form sdfg <> Comm_none || List.mem "rank" (free_symbols sdfg)

let rec stmt_maps in_state = function
  | S_map m -> [ (in_state, m) ]
  | S_cond { then_; _ } -> List.concat_map (stmt_maps in_state) then_
  | S_role { body; _ } -> List.concat_map (stmt_maps in_state) body
  | S_lib _ | S_grid_sync -> []

let maps_of sdfg =
  List.concat_map (fun st -> List.concat_map (stmt_maps st.st_name) st.stmts) sdfg.states

let analyze sdfg =
  let maps =
    List.map
      (fun (st, m) ->
        {
          mi_state = st;
          mi_var = m.m_var;
          mi_parallelism = classify_sem m.m_sem;
          mi_halo = sem_halo m.m_sem;
          mi_reads = List.sort_uniq String.compare (Transforms.sem_reads m.m_sem);
          mi_writes = List.sort_uniq String.compare (Transforms.sem_writes m.m_sem);
        })
      (maps_of sdfg)
  in
  let halo_arrays =
    List.sort_uniq String.compare
      (List.concat_map (fun mi -> if mi.mi_halo > 0 then mi.mi_reads else []) maps)
  in
  let stencil_states =
    List.filter_map
      (fun mi ->
        match (mi.mi_halo > 0, mi.mi_reads) with
        | true, [ src ] -> Some (mi.mi_state, src)
        | _ -> None)
      maps
  in
  {
    maps;
    comm = comm_form sdfg;
    distributed = distributed sdfg;
    halo_arrays;
    stencil_states;
  }

let parallelism_to_string = function
  | Data_parallel -> "data-parallel"
  | Loop_carried -> "loop-carried"

let comm_form_to_string = function
  | Comm_none -> "none"
  | Comm_mpi -> "mpi"
  | Comm_nvshmem -> "nvshmem"
  | Comm_mixed -> "mixed"
