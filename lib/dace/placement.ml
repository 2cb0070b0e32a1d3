open Sdfg

let c = Symbolic.int
let rank = Symbolic.sym "rank"

let ( let* ) = Result.bind

type sharded = { sh_sdfg : Sdfg.t; sh_local : int; sh_global : int }

let const_eq expr v =
  match Symbolic.is_const expr with Some k -> k = v | None -> false

(* The global interior width N of a 1-D program: every stencil map ranges
   over [1, N], every array holds N + 2 cells (interior plus one boundary
   cell per side). *)
let find_global_width sdfg =
  let widths =
    List.filter_map
      (fun (_, m) ->
        match m.m_sem with
        | Jacobi1d _ -> (
          match (Symbolic.is_const m.m_lo, Symbolic.is_const m.m_hi) with
          | Some 1, Some hi -> Some (Ok hi)
          | _ -> Some (Error (Printf.sprintf "stencil map(%s) range is not [1, N] with constant N" m.m_var)))
        | _ -> None)
      (Analysis.maps_of sdfg)
  in
  match widths with
  | [] -> Error "no 1-D stencil map to shard"
  | first :: rest ->
    let* n = first in
    let* () =
      if List.for_all (fun w -> w = Ok n) rest then Ok ()
      else Error "stencil maps disagree on the interior width N"
    in
    Ok n

let check_arrays sdfg ~global =
  List.fold_left
    (fun acc a ->
      let* () = acc in
      if const_eq a.arr_size (global + 2) then Ok ()
      else
        Error
          (Printf.sprintf "array %s size %s is not N + 2 = %d" a.arr_name
             (Symbolic.to_string a.arr_size) (global + 2)))
    (Ok ()) sdfg.arrays

(* Rewrite one map from global coordinates to a rank's local shard of [n]
   interior cells. Init-style maps cover the padded range [0, N+1] and take
   a global offset; stencil maps cover the interior [1, N]. *)
let shard_map ~n ~global m =
  match m.m_sem with
  | Jacobi1d _ ->
    if Analysis.classify_sem m.m_sem <> Analysis.Data_parallel then
      Error (Printf.sprintf "map(%s) is loop-carried (in-place stencil); cannot shard" m.m_var)
    else Ok { m with m_hi = c n }
  | Init_global { dst; global_off } ->
    if const_eq m.m_lo 0 && const_eq m.m_hi (global + 1) then
      Ok
        {
          m with
          m_hi = c (n + 1);
          m_sem = Init_global { dst; global_off = Symbolic.(global_off + (rank * c n)) };
        }
    else Error (Printf.sprintf "init map(%s) range is not [0, N+1]" m.m_var)
  | Fill _ ->
    if const_eq m.m_lo 0 && const_eq m.m_hi (global + 1) then Ok { m with m_hi = c (n + 1) }
    else Error (Printf.sprintf "fill map(%s) range is not [0, N+1]" m.m_var)
  | Jacobi2d _ | Jacobi3d _ | Init_global2d _ | Multi _ ->
    Error
      (Printf.sprintf "map(%s): only 1-D stencil/init/fill maps are shardable" m.m_var)

let shard_state ~n ~global st =
  let* stmts =
    List.fold_left
      (fun acc stmt ->
        let* rev = acc in
        match stmt with
        | S_map m ->
          let* m = shard_map ~n ~global m in
          Ok (S_map m :: rev)
        | S_lib _ | S_cond _ | S_role _ | S_grid_sync ->
          Error
            (Printf.sprintf "state %s holds a non-map statement; cannot shard" st.st_name))
      (Ok []) st.stmts
  in
  Ok { st with stmts = List.rev stmts }

let guarded cond stmts = S_cond { cond; then_ = stmts }

(* The halo exchange inserted before a stencil state: each rank puts its
   first owned cell to the upper neighbour's lower halo and its last owned
   cell to the lower neighbour's upper halo, signal-carrying (the put and
   its flag travel together), then waits for the flags of the cells it
   reads. Signal values are the loop induction variable, which increases by
   one per iteration, so a [ge] wait on it is satisfied exactly once per
   exchange per iteration. *)
let exchange_state ~n ~gpus ~loop_var ~name ~arr ~sig_up ~sig_down =
  let t = Symbolic.sym loop_var in
  let has_up = Symbolic.Ge (rank, c 1) in
  let has_down = Symbolic.Lt (rank, c (gpus - 1)) in
  let put_up =
    S_lib
      (Nv_put
         {
           src = arr;
           src_region = single ~offset:(c 1);
           dst = arr;
           dst_region = single ~offset:(c (n + 1));
           to_pe = Symbolic.(rank - c 1);
           signal = Some (sig_down, Sig_set, t);
         })
  in
  let put_down =
    S_lib
      (Nv_put
         {
           src = arr;
           src_region = single ~offset:(c n);
           dst = arr;
           dst_region = single ~offset:(c 0);
           to_pe = Symbolic.(rank + c 1);
           signal = Some (sig_up, Sig_set, t);
         })
  in
  {
    st_name = name;
    stmts =
      [
        guarded has_up [ put_up ];
        guarded has_down [ put_down ];
        guarded has_up [ S_lib (Nv_signal_wait { signal = sig_up; ge_value = t }) ];
        guarded has_down [ S_lib (Nv_signal_wait { signal = sig_down; ge_value = t }) ];
      ];
  }

let state_writes st =
  List.concat_map
    (function S_map m -> Transforms.sem_writes m.m_sem | _ -> [])
    st.stmts

let stencil_src st =
  List.find_map
    (function
      | S_map m when Analysis.sem_halo m.m_sem > 0 -> (
        match Transforms.sem_reads m.m_sem with [ src ] -> Some src | _ -> None)
      | _ -> None)
    st.stmts

(* Decide, walking the loop body in execution order, which states need a
   fresh halo before them. An array's halo is stale until exchanged and
   goes stale again when the array is rewritten. *)
let plan_exchanges ~body_states =
  let stale = Hashtbl.create 8 in
  let is_stale arr = match Hashtbl.find_opt stale arr with Some b -> b | None -> true in
  List.filter_map
    (fun st ->
      let ins =
        match stencil_src st with
        | Some src when is_stale src ->
          Hashtbl.replace stale src false;
          Some (st.st_name, src)
        | _ -> None
      in
      List.iter (fun w -> Hashtbl.replace stale w true) (state_writes st);
      ins)
    body_states

let shard_1d sdfg ~gpus =
  let* () =
    if gpus < 1 then Error "gpus must be >= 1"
    else if Analysis.distributed sdfg then
      Error "SDFG is already distributed (communicates or mentions rank)"
    else Ok ()
  in
  let* loop = Loop.detect sdfg in
  let* () =
    match Symbolic.is_const loop.Loop.l_init with
    | Some k when k >= 1 -> Ok ()
    | _ -> Error "loop induction variable does not start at a constant >= 1; cannot derive signal values"
  in
  let* global = find_global_width sdfg in
  let* () = check_arrays sdfg ~global in
  let* () =
    if global mod gpus <> 0 then
      Error (Printf.sprintf "interior width %d does not divide across %d gpus" global gpus)
    else Ok ()
  in
  let n = global / gpus in
  let* states =
    List.fold_left
      (fun acc st ->
        let* rev = acc in
        let* st = shard_state ~n ~global st in
        Ok (st :: rev))
      (Ok []) sdfg.states
  in
  let states = List.rev states in
  let body_states =
    List.filter_map (fun name -> List.find_opt (fun st -> st.st_name = name) states)
      loop.Loop.l_body
  in
  let plan = plan_exchanges ~body_states in
  (* Weave each planned exchange into the state list and the interstate
     edges: the exchange takes over every edge into its stencil state and
     hands control straight on. One signal pair per exchange keeps repeated
     exchanges of one array within an iteration independent. *)
  let exchanges =
    List.map
      (fun (before, arr) ->
        let name = Printf.sprintf "exch_%s_%s" arr before in
        let sig_up = Printf.sprintf "s_%s_up" name
        and sig_down = Printf.sprintf "s_%s_down" name in
        ( before,
          exchange_state ~n ~gpus ~loop_var:loop.Loop.l_var ~name ~arr ~sig_up ~sig_down,
          [ sig_up; sig_down ] ))
      plan
  in
  let states =
    List.concat_map
      (fun st ->
        match List.find_opt (fun (before, _, _) -> before = st.st_name) exchanges with
        | Some (_, ex, _) -> [ ex; st ]
        | None -> [ st ])
      states
  in
  let edges =
    List.fold_left
      (fun edges (before, ex, _) ->
        List.map
          (fun e -> if e.e_dst = before then { e with e_dst = ex.st_name } else e)
          edges
        @ [ { e_src = ex.st_name; e_dst = before; e_cond = None; e_assign = [] } ])
      sdfg.edges exchanges
  in
  let signals =
    sdfg.sdfg_signals @ List.concat_map (fun (_, _, sigs) -> sigs) exchanges
  in
  let sh_sdfg = { sdfg with states; edges; sdfg_signals = signals } in
  Validate.check_exn sh_sdfg;
  Ok { sh_sdfg; sh_local = n; sh_global = global }
