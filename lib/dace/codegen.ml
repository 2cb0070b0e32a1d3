open Sdfg

let e = Symbolic.to_string

let region_to_string (r : region) =
  match Symbolic.is_const r.count with
  | Some 1 -> Printf.sprintf "[%s]" (e r.offset)
  | _ -> Printf.sprintf "[%s : +%s : %s]" (e r.offset) (e r.count) (e r.stride)

let sig_op_name = function Sig_set -> "NVSHMEM_SIGNAL_SET" | Sig_add -> "NVSHMEM_SIGNAL_ADD"

let buf = Buffer.create 1024

let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt

let rec sem_body ind sem =
  match sem with
  | Jacobi1d { src; dst } ->
    line "%s%s[i] = (%s[i-1] + %s[i] + %s[i+1]) / 3.0f;" ind dst src src src
  | Jacobi2d { src; dst; row_width; col_lo; col_hi } ->
    let w = e row_width in
    line "%sfor (int c = %s; c <= %s; ++c)" ind (e col_lo) (e col_hi);
    line "%s  %s[i*%s+c] = 0.25f * (%s[(i-1)*%s+c] + %s[(i+1)*%s+c] + %s[i*%s+c-1] + %s[i*%s+c+1]);"
      ind dst w src w src w src w src w
  | Jacobi3d { src; dst; row_width; plane_width; ny } ->
    line "%sfor (int y = 1; y <= %s; ++y)" ind (e ny);
    line "%s  for (int x = 1; x < %s - 1; ++x)" ind (e row_width);
    line
      "%s    %s[i*%s+y*%s+x] = (%s[(i-1)*%s+y*%s+x] + %s[(i+1)*%s+y*%s+x] + /* y,x neighbours */ ...) / 6.0f;"
      ind dst (e plane_width) (e row_width) src (e plane_width) (e row_width) src
      (e plane_width) (e row_width)
  | Fill { dst; value } -> line "%s%s[i] = %g;" ind dst value
  | Init_global { dst; global_off } -> line "%s%s[i] = init_value(%s + i);" ind dst (e global_off)
  | Init_global2d { dst; row_width; global_row0; global_row_width; global_col0 } ->
    line "%sfor (int c = 0; c < %s; ++c)" ind (e row_width);
    line "%s  %s[i*%s+c] = init_value((%s + i) * %s + %s + c);" ind dst (e row_width)
      (e global_row0) (e global_row_width) (e global_col0)
  | Multi sems -> List.iter (sem_body ind) sems

let emit_map_kernel name (m : map_stmt) =
  line "__global__ void %s(/* arrays */) {" name;
  line "  int i = %s + blockIdx.x * blockDim.x + threadIdx.x;" (e m.m_lo);
  line "  if (i > %s) return;" (e m.m_hi);
  sem_body "  " m.m_sem;
  line "}";
  line ""

let lib_call ind node =
  match node with
  | Mpi_isend { arr; region; dst_rank; tag; req } ->
    if Symbolic.is_const region.stride = Some 1 then
      line "%sMPI_Isend(&%s%s, %s, MPI_FLOAT, %s, %d, comm, &%s);" ind arr
        (region_to_string region) (e region.count) (e dst_rank) tag req
    else begin
      line "%sMPI_Type_vector(%s, 1, %s, MPI_FLOAT, &vec_t);" ind (e region.count)
        (e region.stride);
      line "%sMPI_Isend(&%s[%s], 1, vec_t, %s, %d, comm, &%s);" ind arr (e region.offset)
        (e dst_rank) tag req
    end
  | Mpi_irecv { arr; region; src_rank; tag; req } ->
    line "%sMPI_Irecv(&%s%s, %s, MPI_FLOAT, %s, %d, comm, &%s);" ind arr
      (region_to_string region) (e region.count) (e src_rank) tag req
  | Mpi_waitall reqs ->
    line "%sMPI_Waitall(%d, {%s}, MPI_STATUSES_IGNORE);" ind (List.length reqs)
      (String.concat ", " reqs)
  | Nv_put _ -> line "%s/* unexpanded nv_put */" ind
  | Nv_putmem { src; src_region; dst; dst_region; to_pe } ->
    line "%snvshmem_putmem_nbi(&%s[%s], &%s[%s], %s * sizeof(float), %s);" ind dst
      (e dst_region.offset) src (e src_region.offset) (e src_region.count) (e to_pe)
  | Nv_putmem_signal { src; src_region; dst; dst_region; to_pe; signal; sig_kind; sig_value } ->
    line
      "%snvshmemx_putmem_signal_nbi_block(&%s[%s], &%s[%s], %s * sizeof(float), &%s, %s, %s, %s);"
      ind dst (e dst_region.offset) src (e src_region.offset) (e src_region.count) signal
      (e sig_value) (sig_op_name sig_kind) (e to_pe)
  | Nv_iput { src; src_region; dst; dst_region; to_pe } ->
    line "%snvshmem_float_iput(&%s[%s], &%s[%s], %s, %s, %s, %s);" ind dst
      (e dst_region.offset) src (e src_region.offset) (e dst_region.stride)
      (e src_region.stride) (e src_region.count) (e to_pe)
  | Nv_p { src; src_off; dst; dst_off; to_pe } ->
    line "%snvshmem_float_p(&%s[%s], %s[%s], %s);" ind dst (e dst_off) src (e src_off) (e to_pe)
  | Nv_signal_op { signal; sig_kind; sig_value; to_pe } ->
    line "%snvshmem_signal_op(&%s, %s, %s, %s);" ind signal (e sig_value)
      (sig_op_name sig_kind) (e to_pe)
  | Nv_signal_wait { signal; ge_value } ->
    line "%snvshmem_signal_wait_until(&%s, NVSHMEM_CMP_GE, %s);" ind signal (e ge_value)
  | Nv_quiet -> line "%snvshmem_quiet();" ind

let cond_to_c c = Symbolic.cond_to_string c

(* --- baseline emission -------------------------------------------------- *)

let rec emit_baseline_stmt ~state ind stmt =
  match stmt with
  | S_map m ->
    let kname = Printf.sprintf "%s_map_%s" state m.m_var in
    line "%s%s<<<grid, block, 0, stream>>>(/* %s..%s */);" ind kname (e m.m_lo) (e m.m_hi)
  | S_lib (Mpi_isend _ as node) ->
    line "%scudaStreamSynchronize(stream);" ind;
    lib_call ind node
  | S_lib node -> lib_call ind node
  | S_cond { cond; then_ } ->
    line "%sif (%s) {" ind (cond_to_c cond);
    List.iter (emit_baseline_stmt ~state (ind ^ "  ")) then_;
    line "%s}" ind
  | S_role { body; _ } -> List.iter (emit_baseline_stmt ~state ind) body
  | S_grid_sync -> line "%scudaStreamSynchronize(stream);" ind

let rec collect_kernels ~state stmts =
  List.iter
    (fun stmt ->
      match stmt with
      | S_map m -> emit_map_kernel (Printf.sprintf "%s_map_%s" state m.m_var) m
      | S_cond { then_; _ } -> collect_kernels ~state then_
      | S_role { body; _ } -> collect_kernels ~state body
      | S_lib _ | S_grid_sync -> ())
    stmts

let emit_baseline sdfg =
  Buffer.clear buf;
  line "// %s: CPU-controlled code generated by the baseline backend" sdfg.sdfg_name;
  line "// arrays: %s"
    (String.concat ", "
       (List.map
          (fun a ->
            Printf.sprintf "%s[%s]%s" a.arr_name (e a.arr_size)
              (match a.storage with
              | Gpu_nvshmem -> " /*symmetric*/"
              | Gpu_global -> " /*device*/"
              | Host_heap -> " /*host*/"))
          sdfg.arrays));
  line "";
  List.iter (fun st -> collect_kernels ~state:st.st_name st.stmts) sdfg.states;
  line "void run(int rank, int size) {";
  (match Loop.detect sdfg with
  | Ok loop ->
    let emit_state name =
      match find_state sdfg name with
      | None -> ()
      | Some st ->
        line "  // state %s" st.st_name;
        List.iter (emit_baseline_stmt ~state:st.st_name "  ") st.stmts;
        line "  cudaStreamSynchronize(stream);"
    in
    List.iter emit_state (Loop.prologue sdfg loop);
    line "  for (int %s = %s; %s; %s = %s) {" loop.Loop.l_var (e loop.Loop.l_init)
      (cond_to_c loop.Loop.l_cond) loop.Loop.l_var (e loop.Loop.l_update);
    List.iter
      (fun name ->
        match find_state sdfg name with
        | None -> ()
        | Some st ->
          line "    // state %s" st.st_name;
          List.iter (emit_baseline_stmt ~state:st.st_name "    ") st.stmts;
          line "    cudaStreamSynchronize(stream);")
      loop.Loop.l_body;
    line "  }";
    List.iter emit_state (Loop.epilogue sdfg loop)
  | Error _ ->
    List.iter
      (fun st ->
        line "  // state %s" st.st_name;
        List.iter (emit_baseline_stmt ~state:st.st_name "  ") st.stmts)
      sdfg.states);
  line "}";
  Buffer.contents buf

(* --- persistent emission ------------------------------------------------ *)

let rec emit_persistent_stmt ind stmt =
  match stmt with
  | S_map m ->
    line "%s// map %s in [%s, %s] (persistent, software-tiled)" ind m.m_var (e m.m_lo)
      (e m.m_hi);
    line "%sfor (int i = %s + tile_start; i <= %s; i += tile_stride) {" ind (e m.m_lo)
      (e m.m_hi);
    sem_body (ind ^ "  ") m.m_sem;
    line "%s}" ind
  | S_lib node ->
    line "%sif (threadIdx.x == 0 && blockIdx.x == 0) {" ind;
    lib_call (ind ^ "  ") node;
    line "%s}" ind
  | S_cond { cond; then_ } ->
    line "%sif (%s) {" ind (cond_to_c cond);
    List.iter (emit_persistent_stmt (ind ^ "  ")) then_;
    line "%s}" ind
  | S_role { role; body } ->
    let guard =
      match role with
      | Comm_role -> "blockIdx.x < COMM_BLOCKS /* specialized comm TBs */"
      | Compute_role -> "blockIdx.x >= COMM_BLOCKS /* compute TBs */"
    in
    line "%sif (%s) {" ind guard;
    List.iter (emit_persistent_stmt (ind ^ "  ")) body;
    line "%s}" ind
  | S_grid_sync -> line "%sgrid.sync();" ind

let emit_persistent (p : Persistent_fusion.t) =
  Buffer.clear buf;
  let sdfg = p.Persistent_fusion.base in
  let loop = p.Persistent_fusion.loop in
  line "// %s: CPU-Free persistent kernel generated by GPUPersistentKernel fusion" sdfg.sdfg_name;
  line "// symmetric arrays: %s"
    (String.concat ", "
       (List.filter_map
          (fun a -> if a.storage = Gpu_nvshmem then Some a.arr_name else None)
          sdfg.arrays));
  line "";
  line "__global__ void %s_persistent(/* symmetric arrays, signals */) {" sdfg.sdfg_name;
  line "  cooperative_groups::grid_group grid = cooperative_groups::this_grid();";
  line "  const int rank = nvshmem_my_pe(), size = nvshmem_n_pes();";
  line "  for (int %s = %s; %s; %s = %s) {" loop.Loop.l_var (e loop.Loop.l_init)
    (cond_to_c loop.Loop.l_cond) loop.Loop.l_var (e loop.Loop.l_update);
  List.iter
    (fun st ->
      line "    // state %s" st.st_name;
      List.iter (emit_persistent_stmt "    ") st.stmts)
    p.Persistent_fusion.body;
  line "  }";
  line "}";
  line "";
  line "void launch(int rank) {";
  line "  void *args[] = { /* ... */ };";
  line "  cudaLaunchCooperativeKernel((void *)%s_persistent, coResidentBlocks, 1024, args);"
    sdfg.sdfg_name;
  line "  cudaDeviceSynchronize(); // the only host synchronization";
  line "}";
  Buffer.contents buf
