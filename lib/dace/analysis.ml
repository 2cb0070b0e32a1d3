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
let parallelism ops =
  let reads = arrays ~access:Read ops in
  if List.exists (fun w -> List.mem w reads) (arrays ~access:Write ops) then Loop_carried
  else Data_parallel

let classify_sem sem = parallelism (sem_operands ~var:"" sem)

let stmts_of sdfg = List.concat_map (fun st -> walk st.stmts) sdfg.states

let free_symbols sdfg =
  let exprs =
    List.filter_map
      (function { kind = Expr e; _ } -> Some e | _ -> None)
      (List.concat_map operands (stmts_of sdfg))
  in
  let of_edges =
    List.concat_map
      (fun e ->
        (match e.e_cond with
        | None -> []
        | Some Symbolic.(Lt (a, b) | Le (a, b) | Eq (a, b) | Ge (a, b)) -> [ a; b ])
        @ List.map snd e.e_assign)
      sdfg.edges
  in
  List.sort_uniq String.compare (List.concat_map Symbolic.free_symbols (exprs @ of_edges))

let libnodes sdfg = List.filter_map (function S_lib node -> Some node | _ -> None) (stmts_of sdfg)

let comm_form sdfg =
  let nv, mpi = List.partition is_nvshmem (libnodes sdfg) in
  match (mpi <> [], nv <> []) with
  | false, false -> Comm_none
  | true, false -> Comm_mpi
  | false, true -> Comm_nvshmem
  | true, true -> Comm_mixed

(* An SDFG is "distributed" when it is already written in SPMD per-rank form:
   it communicates, or its expressions mention the ["rank"] symbol. A
   non-distributed SDFG describes the whole global domain and is a candidate
   for {!Placement.shard_1d}. *)
let distributed sdfg = comm_form sdfg <> Comm_none || List.mem "rank" (free_symbols sdfg)

let maps_of sdfg =
  List.concat_map
    (fun st ->
      List.filter_map (function S_map m -> Some (st.st_name, m) | _ -> None) (walk st.stmts))
    sdfg.states

let analyze sdfg =
  let maps =
    List.map
      (fun (st, m) ->
        let ops = sem_operands ~var:m.m_var m.m_sem in
        {
          mi_state = st;
          mi_var = m.m_var;
          mi_parallelism = parallelism ops;
          mi_halo = sem_halo m.m_sem;
          mi_reads = List.sort_uniq String.compare (arrays ~access:Read ops);
          mi_writes = List.sort_uniq String.compare (arrays ~access:Write ops);
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
