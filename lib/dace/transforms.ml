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

let fusable a b =
  let touched_by_b = arrays (operands (S_map b)) in
  a.m_schedule = b.m_schedule
  && Symbolic.equal a.m_lo b.m_lo
  && Symbolic.equal a.m_hi b.m_hi
  && String.equal a.m_var b.m_var
  && not
       (List.exists (fun w -> List.mem w touched_by_b) (arrays ~access:Write (operands (S_map a))))

let map_fusion sdfg =
  let count = ref 0 in
  let rec fuse = function
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
      fuse (merged :: rest)
    | stmt :: rest -> stmt :: fuse rest
    | [] -> []
  in
  let sdfg = map_states sdfg ~f:(fun st -> { st with stmts = map_bodies ~f:fuse st.stmts }) in
  (sdfg, !count)

let nvshmem_arrays_used sdfg =
  List.sort_uniq String.compare
    (List.filter_map
       (function { kind = Data { array; symmetric = true; _ }; _ } -> Some array | _ -> None)
       (List.concat_map (fun st -> List.concat_map operands (walk st.stmts)) sdfg.states))

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
  let remaining =
    List.concat_map
      (fun st ->
        List.filter_map
          (function
            | S_lib node when not (is_nvshmem node) -> Some (lib_label node ^ " in " ^ st.st_name)
            | S_map _ | S_lib _ | S_cond _ | S_role _ | S_grid_sync -> None)
          (walk st.stmts))
      sdfg.states
  in
  match remaining with
  | [] -> Ok ()
  | rs -> Error ("MPI nodes remain: " ^ String.concat ", " rs)
