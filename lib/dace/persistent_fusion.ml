open Sdfg

type t = {
  base : Sdfg.t;
  prologue : state list;
  loop : Loop.t;
  body : state list;
  epilogue : state list;
}

let to_persistent_schedule =
  map_bodies
    ~f:(List.map (function S_map m -> S_map { m with m_schedule = Gpu_persistent } | s -> s))

(* A statement touches global memory when it, or a statement of its body, is
   a map or an NVSHMEM node. *)
let touches_global stmt =
  List.exists
    (function
      | S_map _ -> true
      | S_lib node -> is_nvshmem node
      | S_cond _ | S_role _ | S_grid_sync -> false)
    (walk [ stmt ])

let insert_barriers ~relax st =
  let stmts = to_persistent_schedule st.stmts in
  let stmts =
    if relax then stmts
    else
      List.concat_map
        (fun s -> if touches_global s then [ s; S_grid_sync ] else [ s ])
        stmts
  in
  (* State boundary barrier: successors may consume anything written here. *)
  { st with stmts = stmts @ [ S_grid_sync ] }

let states_named sdfg names =
  List.filter_map (fun n -> find_state sdfg n) names

let apply ?(relax = true) sdfg =
  match Loop.detect sdfg with
  | Error e -> Error e
  | Ok loop ->
    let body =
      List.map (insert_barriers ~relax) (states_named sdfg loop.Loop.l_body)
    in
    Ok
      {
        base = sdfg;
        prologue = states_named sdfg (Loop.prologue sdfg loop);
        loop;
        body;
        epilogue = states_named sdfg (Loop.epilogue sdfg loop);
      }

let barrier_count t =
  List.length
    (List.filter (fun s -> s = S_grid_sync) (List.concat_map (fun st -> walk st.stmts) t.body))

(* --- §5.4 thread-block specialization ----------------------------------- *)

(* A state qualifies as an exchange if, barriers aside, it contains only
   communication library nodes (possibly behind rank guards). *)
let is_exchange_state st =
  st.stmts <> []
  && List.for_all
       (function S_lib _ | S_cond _ | S_grid_sync -> true | S_map _ | S_role _ -> false)
       (walk st.stmts)

let strip_sync stmts = List.filter (fun s -> s <> S_grid_sync) stmts

(* A state qualifies as a stencil-compute if it is a single Jacobi map (plus
   barriers) whose interior can be split off. *)
let stencil_map_of st =
  match strip_sync st.stmts with
  | [ S_map ({ m_sem = Jacobi1d _ | Jacobi2d _ | Jacobi3d _; _ } as m) ] -> Some m
  | _ -> None

(* Split a stencil map into a halo-independent interior and the
   halo-dependent boundary strips. For the 1D 3-point update the edge
   elements are the boundary; for the 2D 5-point update on a grid-decomposed
   rank all four strips (first/last row, first/last column) read halo data,
   so the safe interior shrinks in both dimensions. *)
let split_map (m : map_stmt) =
  match m.m_sem with
  | Jacobi1d _ ->
    let interior =
      S_map { m with m_lo = Symbolic.(m.m_lo + int 1); m_hi = Symbolic.(m.m_hi - int 1) }
    in
    let edge at = S_map { m with m_lo = at; m_hi = at } in
    Some ([ interior ], [ edge m.m_lo; edge m.m_hi ])
  | Jacobi2d j ->
    let row at sem_cols work =
      S_map
        {
          m with
          m_lo = at;
          m_hi = at;
          m_sem = Jacobi2d { j with col_lo = fst sem_cols; col_hi = snd sem_cols };
          m_work = work;
        }
    in
    let full_cols = (j.col_lo, j.col_hi) in
    let inner_rows = Symbolic.(m.m_lo + int 1, m.m_hi - int 1) in
    let interior =
      S_map
        {
          m with
          m_lo = fst inner_rows;
          m_hi = snd inner_rows;
          m_sem =
            Jacobi2d
              { j with col_lo = Symbolic.(j.col_lo + int 1); col_hi = Symbolic.(j.col_hi - int 1) };
          m_work = Symbolic.(m.m_work - int 2);
        }
    in
    let col at =
      S_map
        {
          m with
          m_lo = fst inner_rows;
          m_hi = snd inner_rows;
          m_sem = Jacobi2d { j with col_lo = at; col_hi = at };
          m_work = Symbolic.int 1;
        }
    in
    Some
      ( [ interior ],
        [
          row m.m_lo full_cols m.m_work;
          row m.m_hi full_cols m.m_work;
          col j.col_lo;
          col j.col_hi;
        ] )
  | Jacobi3d _ ->
    (* z-decomposed 3D: only whole z-planes are exchanged, and the in-plane
       shell is Dirichlet-fixed, so interior planes read no halo data. *)
    let interior =
      S_map { m with m_lo = Symbolic.(m.m_lo + int 1); m_hi = Symbolic.(m.m_hi - int 1) }
    in
    let edge at = S_map { m with m_lo = at; m_hi = at } in
    Some ([ interior ], [ edge m.m_lo; edge m.m_hi ])
  | Fill _ | Init_global _ | Init_global2d _ | Multi _ -> None

let fuse_pair ex comp (m : map_stmt) =
  match split_map m with
  | None -> None
  | Some (interior, boundary) ->
    Some
      {
        st_name = ex.st_name ^ "+" ^ comp.st_name;
        stmts =
          [
            (* The interior reads no halo data: it starts immediately on the
               compute group while the comm group synchronizes and updates
               the halo-adjacent strips. *)
            S_role { role = Compute_role; body = interior };
            S_role { role = Comm_role; body = strip_sync ex.stmts @ boundary };
            S_grid_sync;
          ];
      }

let wide_enough m =
  (* Need at least three rows (and columns, in 2D) for a non-empty interior. *)
  let span lo hi = match Symbolic.is_const Symbolic.(hi - lo) with Some d -> d >= 2 | None -> true in
  span m.m_lo m.m_hi
  && match m.m_sem with Jacobi2d { col_lo; col_hi; _ } -> span col_lo col_hi | _ -> true

let specialize_tb t =
  let fused = ref 0 in
  let rec go = function
    | ex :: comp :: rest when is_exchange_state ex -> (
      match stencil_map_of comp with
      | Some m when wide_enough m -> (
        match fuse_pair ex comp m with
        | Some st ->
          incr fused;
          st :: go rest
        | None -> ex :: go (comp :: rest))
      | Some _ | None -> ex :: go (comp :: rest))
    | st :: rest -> st :: go rest
    | [] -> []
  in
  let body = go t.body in
  ({ t with body }, !fused)
