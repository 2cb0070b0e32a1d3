open Sdfg

let gpu_transform sdfg =
  let sdfg =
    map_array sdfg ~f:(fun a ->
        if a.storage = Host_heap then { a with storage = Gpu_global } else a)
  in
  map_stmts sdfg ~f:(fun stmt ->
      match stmt with
      | S_map m when m.m_schedule = Sequential -> [ S_map { m with m_schedule = Gpu_device } ]
      | S_map _ | S_lib _ | S_cond _ | S_role _ | S_grid_sync -> [ stmt ])

let rec sem_writes = function
  | Jacobi1d { dst; _ } | Jacobi2d { dst; _ } | Jacobi3d { dst; _ } | Fill { dst; _ }
  | Init_global { dst; _ } | Init_global2d { dst; _ } -> [ dst ]
  | Multi sems -> List.concat_map sem_writes sems

let rec sem_reads = function
  | Jacobi1d { src; _ } | Jacobi2d { src; _ } | Jacobi3d { src; _ } -> [ src ]
  | Fill _ | Init_global _ | Init_global2d _ -> []
  | Multi sems -> List.concat_map sem_reads sems

let fusable a b =
  a.m_schedule = b.m_schedule
  && Symbolic.equal a.m_lo b.m_lo
  && Symbolic.equal a.m_hi b.m_hi
  && String.equal a.m_var b.m_var
  && (not (List.exists (fun w -> List.mem w (sem_reads b.m_sem)) (sem_writes a.m_sem)))
  && not (List.exists (fun w -> List.mem w (sem_writes b.m_sem)) (sem_writes a.m_sem))

let map_fusion sdfg =
  let count = ref 0 in
  let rec fuse_stmts = function
    | S_map a :: S_map b :: rest when fusable a b ->
      incr count;
      let merged =
        S_map
          {
            a with
            m_sem = Multi [ a.m_sem; b.m_sem ];
            m_work = Symbolic.(a.m_work + b.m_work);
          }
      in
      fuse_stmts (merged :: rest)
    | S_cond { cond; then_ } :: rest -> S_cond { cond; then_ = fuse_stmts then_ } :: fuse_stmts rest
    | S_role { role; body } :: rest -> S_role { role; body = fuse_stmts body } :: fuse_stmts rest
    | stmt :: rest -> stmt :: fuse_stmts rest
    | [] -> []
  in
  let sdfg = map_states sdfg ~f:(fun st -> { st with stmts = fuse_stmts st.stmts }) in
  (sdfg, !count)

let nvshmem_arrays_used sdfg =
  let acc = ref [] in
  let note node =
    match node with
    | Nv_put _ | Nv_putmem _ | Nv_putmem_signal _ | Nv_iput _ | Nv_p _ ->
      acc := arrays_of_libnode node @ !acc
    | Mpi_isend _ | Mpi_irecv _ | Mpi_waitall _ | Nv_signal_op _ | Nv_signal_wait _ | Nv_quiet ->
      ()
  in
  let rec scan = function
    | S_lib node -> note node
    | S_cond { then_; _ } -> List.iter scan then_
    | S_role { body; _ } -> List.iter scan body
    | S_map _ | S_grid_sync -> ()
  in
  List.iter (fun st -> List.iter scan st.stmts) sdfg.states;
  List.sort_uniq String.compare !acc

let nvshmem_array sdfg =
  let symmetric = nvshmem_arrays_used sdfg in
  map_array sdfg ~f:(fun a ->
      if List.mem a.arr_name symmetric then { a with storage = Gpu_nvshmem } else a)

let const_stride region =
  match Symbolic.is_const region.stride with
  | Some s -> s
  | None -> invalid_arg "expand_nvshmem: symbolic stride is not supported"

let expand_put ~src ~src_region ~dst ~dst_region ~to_pe ~signal =
  let s_stride = const_stride src_region and d_stride = const_stride dst_region in
  let is_single = Symbolic.is_const src_region.count = Some 1 in
  let contiguous = s_stride = 1 && d_stride = 1 in
  let signal_tail =
    match signal with
    | None -> []
    | Some (signal, sig_kind, sig_value) ->
      [ S_lib Nv_quiet; S_lib (Nv_signal_op { signal; sig_kind; sig_value; to_pe }) ]
  in
  if is_single then
    S_lib
      (Nv_p
         {
           src;
           src_off = src_region.offset;
           dst;
           dst_off = dst_region.offset;
           to_pe;
         })
    :: signal_tail
  else if contiguous then begin
    match signal with
    | Some (signal, sig_kind, sig_value) ->
      [
        S_lib
          (Nv_putmem_signal
             { src; src_region; dst; dst_region; to_pe; signal; sig_kind; sig_value });
      ]
    | None -> [ S_lib (Nv_putmem { src; src_region; dst; dst_region; to_pe }) ]
  end
  else S_lib (Nv_iput { src; src_region; dst; dst_region; to_pe }) :: signal_tail

let expand_nvshmem sdfg =
  map_stmts sdfg ~f:(fun stmt ->
      match stmt with
      | S_lib (Nv_put { src; src_region; dst; dst_region; to_pe; signal }) ->
        expand_put ~src ~src_region ~dst ~dst_region ~to_pe ~signal
      | S_map _ | S_lib _ | S_cond _ | S_role _ | S_grid_sync -> [ stmt ])

let replace_mpi_with_nvshmem_check sdfg =
  let remaining = ref [] in
  let rec scan in_state = function
    | S_lib (Mpi_isend _) -> remaining := ("MPI_Isend in " ^ in_state) :: !remaining
    | S_lib (Mpi_irecv _) -> remaining := ("MPI_Irecv in " ^ in_state) :: !remaining
    | S_lib (Mpi_waitall _) -> remaining := ("MPI_Waitall in " ^ in_state) :: !remaining
    | S_cond { then_; _ } -> List.iter (scan in_state) then_
    | S_role { body; _ } -> List.iter (scan in_state) body
    | S_map _ | S_lib _ | S_grid_sync -> ()
  in
  List.iter (fun st -> List.iter (scan st.st_name) st.stmts) sdfg.states;
  match !remaining with
  | [] -> Ok ()
  | rs -> Error ("MPI nodes remain: " ^ String.concat ", " (List.rev rs))
