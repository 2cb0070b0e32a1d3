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
  let walked = List.map (fun st -> (st.st_name, walk st.stmts)) sdfg.states in
  let ops = List.map (fun (name, stmts) -> (name, List.concat_map operands stmts)) walked in
  let map_vars =
    List.filter_map
      (function S_map m -> Some m.m_var | _ -> None)
      (List.concat_map snd walked)
  in
  let known = List.sort_uniq String.compare (known_symbols sdfg @ map_vars) in
  let posted =
    List.filter_map
      (function { kind = Request { req; access = Write }; _ } -> Some req | _ -> None)
      (List.concat_map snd ops)
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
  (* Each message names the offending node by its operand's label (maps
     carry their variable, ["map(i)"]), so an error in a many-statement
     state points at the statement, not just the state. *)
  let check_operand ~in_state { label; kind } =
    let err fmt = Printf.ksprintf (err ~in_state) fmt in
    match kind with
    | Data { array; symmetric; _ } -> (
      match find_array sdfg array with
      | None -> err "%s references undeclared array %s" label array
      | Some desc ->
        if require_symmetric && symmetric && desc.storage <> Gpu_nvshmem then
          err "%s touches array %s which is not on the symmetric heap" label array)
    | Signal signal ->
      if not (has_signal sdfg signal) then err "%s references undeclared signal %s" label signal
    | Expr e ->
      List.iter
        (fun s -> if not (List.mem s known) then err "%s uses unbound symbol %s" label s)
        (Symbolic.free_symbols e)
    | Request { req; access = Read } ->
      if not (List.mem req posted) then
        err "%s waits on request %s that no MPI_Isend or MPI_Irecv posts" label req
    | Request { access = Write; _ } -> ()
  in
  List.iter (fun (in_state, ops) -> List.iter (check_operand ~in_state) ops) ops;
  match List.rev !errors with [] -> Ok () | es -> Error es

let check_exn ?require_symmetric sdfg =
  match check ?require_symmetric sdfg with
  | Ok () -> ()
  | Error es ->
    invalid_arg
      (Printf.sprintf "SDFG %s invalid: %s" sdfg.sdfg_name
         (String.concat "; " (List.map error_to_string es)))
