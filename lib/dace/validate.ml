open Sdfg

type error = { in_state : string option; message : string }

let error_to_string e =
  match e.in_state with
  | None -> e.message
  | Some s -> Printf.sprintf "[state %s] %s" s e.message

let known_symbols sdfg =
  let assigned =
    List.concat_map (fun e -> List.map fst e.e_assign) sdfg.edges
  in
  let fixed = List.map fst sdfg.symbols in
  List.sort_uniq String.compare (("rank" :: "size" :: fixed) @ assigned)

let check ?(require_symmetric = false) sdfg =
  let errors = ref [] in
  let err ?in_state message = errors := { in_state; message } :: !errors in
  let known = known_symbols sdfg in
  let map_vars =
    List.concat_map
      (fun st ->
        let rec vars = function
          | S_map m -> [ m.m_var ]
          | S_cond { then_; _ } -> List.concat_map vars then_
          | S_role { body; _ } -> List.concat_map vars body
          | S_lib _ | S_grid_sync -> []
        in
        List.concat_map vars st.stmts)
      sdfg.states
  in
  let known = List.sort_uniq String.compare (known @ map_vars) in
  let check_expr ?in_state what e =
    List.iter
      (fun s ->
        if not (List.mem s known) then
          err ?in_state (Printf.sprintf "%s uses unbound symbol %s" what s))
      (Symbolic.free_symbols e)
  in
  let check_array ?in_state what name =
    match find_array sdfg name with
    | None -> err ?in_state (Printf.sprintf "%s references undeclared array %s" what name)
    | Some desc ->
      if require_symmetric && String.length what >= 2 && String.sub what 0 2 = "nv" then
        if desc.storage <> Gpu_nvshmem then
          err ?in_state
            (Printf.sprintf "%s touches array %s which is not on the symmetric heap" what name)
  in
  let check_signal ?in_state what name =
    if not (has_signal sdfg name) then
      err ?in_state (Printf.sprintf "%s references undeclared signal %s" what name)
  in
  let check_region ?in_state what (r : region) =
    check_expr ?in_state what r.offset;
    check_expr ?in_state what r.stride;
    check_expr ?in_state what r.count
  in
  (* Start state and edge endpoints. *)
  if find_state sdfg sdfg.start_state = None then
    err (Printf.sprintf "start state %s does not exist" sdfg.start_state);
  List.iter
    (fun e ->
      if find_state sdfg e.e_src = None then
        err (Printf.sprintf "edge source %s does not exist" e.e_src);
      if find_state sdfg e.e_dst = None then
        err (Printf.sprintf "edge destination %s does not exist" e.e_dst))
    sdfg.edges;
  let check_lib ~in_state node =
    let what =
      match node with
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
    in
    List.iter (check_array ~in_state what) (arrays_of_libnode node);
    match node with
    | Mpi_isend { region; dst_rank; _ } ->
      check_region ~in_state what region;
      check_expr ~in_state what dst_rank
    | Mpi_irecv { region; src_rank; _ } ->
      check_region ~in_state what region;
      check_expr ~in_state what src_rank
    | Mpi_waitall _ -> ()
    | Nv_put { src_region; dst_region; to_pe; signal; _ } ->
      check_region ~in_state what src_region;
      check_region ~in_state what dst_region;
      check_expr ~in_state what to_pe;
      Option.iter
        (fun (s, _, v) ->
          check_signal ~in_state what s;
          check_expr ~in_state what v)
        signal
    | Nv_putmem { src_region; dst_region; to_pe; _ } | Nv_iput { src_region; dst_region; to_pe; _ }
      ->
      check_region ~in_state what src_region;
      check_region ~in_state what dst_region;
      check_expr ~in_state what to_pe
    | Nv_putmem_signal { src_region; dst_region; to_pe; signal; sig_value; _ } ->
      check_region ~in_state what src_region;
      check_region ~in_state what dst_region;
      check_expr ~in_state what to_pe;
      check_signal ~in_state what signal;
      check_expr ~in_state what sig_value
    | Nv_p { src_off; dst_off; to_pe; _ } ->
      check_expr ~in_state what src_off;
      check_expr ~in_state what dst_off;
      check_expr ~in_state what to_pe
    | Nv_signal_op { signal; sig_value; to_pe; _ } ->
      check_signal ~in_state what signal;
      check_expr ~in_state what sig_value;
      check_expr ~in_state what to_pe
    | Nv_signal_wait { signal; ge_value; from_pe } ->
      check_signal ~in_state what signal;
      check_expr ~in_state what ge_value;
      check_expr ~in_state what from_pe
    | Nv_quiet -> ()
  in
  (* Name the offending node in every message: maps carry their variable
     (["map(i)"]), copies their endpoints — so an error in a many-statement
     state points at the statement, not just the state. *)
  let rec check_sem ~in_state ~who = function
    | Jacobi1d { src; dst } ->
      check_array ~in_state (who "jacobi1d") src;
      check_array ~in_state (who "jacobi1d") dst
    | Jacobi2d { src; dst; row_width; col_lo; col_hi } ->
      check_array ~in_state (who "jacobi2d") src;
      check_array ~in_state (who "jacobi2d") dst;
      check_expr ~in_state (who "jacobi2d") row_width;
      check_expr ~in_state (who "jacobi2d") col_lo;
      check_expr ~in_state (who "jacobi2d") col_hi
    | Jacobi3d { src; dst; row_width; plane_width; ny } ->
      check_array ~in_state (who "jacobi3d") src;
      check_array ~in_state (who "jacobi3d") dst;
      List.iter (check_expr ~in_state (who "jacobi3d")) [ row_width; plane_width; ny ]
    | Fill { dst; _ } -> check_array ~in_state (who "fill") dst
    | Init_global { dst; global_off } ->
      check_array ~in_state (who "init") dst;
      check_expr ~in_state (who "init") global_off
    | Init_global2d { dst; row_width; global_row0; global_row_width; global_col0 } ->
      check_array ~in_state (who "init2d") dst;
      List.iter
        (check_expr ~in_state (who "init2d"))
        [ row_width; global_row0; global_row_width; global_col0 ]
    | Multi sems -> List.iter (check_sem ~in_state ~who) sems
  in
  let rec check_stmt ~in_state = function
    | S_map m ->
      let who kind = Printf.sprintf "%s map(%s)" kind m.m_var in
      check_expr ~in_state (Printf.sprintf "map(%s) range" m.m_var) m.m_lo;
      check_expr ~in_state (Printf.sprintf "map(%s) range" m.m_var) m.m_hi;
      check_expr ~in_state (Printf.sprintf "map(%s) work" m.m_var) m.m_work;
      check_sem ~in_state ~who m.m_sem
    | S_lib node -> check_lib ~in_state node
    | S_cond { cond; then_ } ->
      (match cond with
      | Symbolic.Lt (a, b) | Symbolic.Le (a, b) | Symbolic.Eq (a, b) | Symbolic.Ge (a, b) ->
        check_expr ~in_state "branch condition" a;
        check_expr ~in_state "branch condition" b);
      List.iter (check_stmt ~in_state) then_
    | S_role { body; _ } -> List.iter (check_stmt ~in_state) body
    | S_grid_sync -> ()
  in
  List.iter
    (fun st -> List.iter (check_stmt ~in_state:st.st_name) st.stmts)
    sdfg.states;
  match List.rev !errors with [] -> Ok () | es -> Error es

let check_exn ?require_symmetric sdfg =
  match check ?require_symmetric sdfg with
  | Ok () -> ()
  | Error es ->
    invalid_arg
      (Printf.sprintf "SDFG %s invalid: %s" sdfg.sdfg_name
         (String.concat "; " (List.map error_to_string es)))
