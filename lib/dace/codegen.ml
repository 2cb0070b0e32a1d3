open Sdfg

let e = Symbolic.to_string

let region_to_string (r : region) =
  match Symbolic.is_const r.count with
  | Some 1 -> Printf.sprintf "[%s]" (e r.offset)
  | _ -> Printf.sprintf "[%s : +%s : %s]" (e r.offset) (e r.count) (e r.stride)

let sig_op_name = function Sig_set -> "NVSHMEM_SIGNAL_SET" | Sig_add -> "NVSHMEM_SIGNAL_ADD"

(* Every emit writes into its own buffer [b], so emits may run at once. *)
let line b fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string b s;
      Buffer.add_char b '\n')
    fmt

let rec sem_body b ind sem =
  match sem with
  | Jacobi1d { src; dst } ->
    line b "%s%s[i] = (%s[i-1] + %s[i] + %s[i+1]) / 3.0f;" ind dst src src src
  | Jacobi2d { src; dst; row_width; col_lo; col_hi } ->
    let w = e row_width in
    line b "%sfor (int c = %s; c <= %s; ++c)" ind (e col_lo) (e col_hi);
    line b "%s  %s[i*%s+c] = 0.25f * (%s[(i-1)*%s+c] + %s[(i+1)*%s+c] + %s[i*%s+c-1] + %s[i*%s+c+1]);"
      ind dst w src w src w src w src w
  | Jacobi3d { src; dst; row_width; plane_width; ny } ->
    line b "%sfor (int y = 1; y <= %s; ++y)" ind (e ny);
    line b "%s  for (int x = 1; x < %s - 1; ++x)" ind (e row_width);
    line b
      "%s    %s[i*%s+y*%s+x] = (%s[(i-1)*%s+y*%s+x] + %s[(i+1)*%s+y*%s+x] + /* y,x neighbours */ ...) / 6.0f;"
      ind dst (e plane_width) (e row_width) src (e plane_width) (e row_width) src
      (e plane_width) (e row_width)
  | Fill { dst; value } -> line b "%s%s[i] = %g;" ind dst value
  | Init_global { dst; global_off } -> line b "%s%s[i] = init_value(%s + i);" ind dst (e global_off)
  | Init_global2d { dst; row_width; global_row0; global_row_width; global_col0 } ->
    line b "%sfor (int c = 0; c < %s; ++c)" ind (e row_width);
    line b "%s  %s[i*%s+c] = init_value((%s + i) * %s + %s + c);" ind dst (e row_width)
      (e global_row0) (e global_row_width) (e global_col0)
  | Multi sems -> List.iter (sem_body b ind) sems

let emit_map_kernel b name (m : map_stmt) =
  line b "__global__ void %s(/* arrays */) {" name;
  line b "  int i = %s + blockIdx.x * blockDim.x + threadIdx.x;" (e m.m_lo);
  line b "  if (i > %s) return;" (e m.m_hi);
  sem_body b "  " m.m_sem;
  line b "}";
  line b ""

let lib_call b ind node =
  match node with
  | Mpi_isend { arr; region; dst_rank; tag; req } ->
    if Symbolic.is_const region.stride = Some 1 then
      line b "%sMPI_Isend(&%s%s, %s, MPI_FLOAT, %s, %d, comm, &%s);" ind arr
        (region_to_string region) (e region.count) (e dst_rank) tag req
    else begin
      line b "%sMPI_Type_vector(%s, 1, %s, MPI_FLOAT, &vec_t);" ind (e region.count)
        (e region.stride);
      line b "%sMPI_Isend(&%s[%s], 1, vec_t, %s, %d, comm, &%s);" ind arr (e region.offset)
        (e dst_rank) tag req
    end
  | Mpi_irecv { arr; region; src_rank; tag; req } ->
    line b "%sMPI_Irecv(&%s%s, %s, MPI_FLOAT, %s, %d, comm, &%s);" ind arr
      (region_to_string region) (e region.count) (e src_rank) tag req
  | Mpi_waitall reqs ->
    line b "%sMPI_Waitall(%d, {%s}, MPI_STATUSES_IGNORE);" ind (List.length reqs)
      (String.concat ", " reqs)
  | Nv_put _ -> line b "%s/* unexpanded nv_put */" ind
  | Nv_putmem { src; src_region; dst; dst_region; to_pe } ->
    line b "%snvshmem_putmem_nbi(&%s[%s], &%s[%s], %s * sizeof(float), %s);" ind dst
      (e dst_region.offset) src (e src_region.offset) (e src_region.count) (e to_pe)
  | Nv_putmem_signal { src; src_region; dst; dst_region; to_pe; signal; sig_kind; sig_value } ->
    line b
      "%snvshmemx_putmem_signal_nbi_block(&%s[%s], &%s[%s], %s * sizeof(float), &%s, %s, %s, %s);"
      ind dst (e dst_region.offset) src (e src_region.offset) (e src_region.count) signal
      (e sig_value) (sig_op_name sig_kind) (e to_pe)
  | Nv_iput { src; src_region; dst; dst_region; to_pe } ->
    line b "%snvshmem_float_iput(&%s[%s], &%s[%s], %s, %s, %s, %s);" ind dst
      (e dst_region.offset) src (e src_region.offset) (e dst_region.stride)
      (e src_region.stride) (e src_region.count) (e to_pe)
  | Nv_p { src; src_off; dst; dst_off; to_pe } ->
    line b "%snvshmem_float_p(&%s[%s], %s[%s], %s);" ind dst (e dst_off) src (e src_off) (e to_pe)
  | Nv_signal_op { signal; sig_kind; sig_value; to_pe } ->
    line b "%snvshmem_signal_op(&%s, %s, %s, %s);" ind signal (e sig_value)
      (sig_op_name sig_kind) (e to_pe)
  | Nv_signal_wait { signal; ge_value; _ } ->
    line b "%snvshmem_signal_wait_until(&%s, NVSHMEM_CMP_GE, %s);" ind signal (e ge_value)
  | Nv_quiet -> line b "%snvshmem_quiet();" ind

let cond_to_c c = Symbolic.cond_to_string c

(* --- baseline emission -------------------------------------------------- *)

let rec emit_baseline_stmt b ~state ind stmt =
  match stmt with
  | S_map m ->
    let kname = Printf.sprintf "%s_map_%s" state m.m_var in
    line b "%s%s<<<grid, block, 0, stream>>>(/* %s..%s */);" ind kname (e m.m_lo) (e m.m_hi)
  | S_lib (Mpi_isend _ as node) ->
    line b "%scudaStreamSynchronize(stream);" ind;
    lib_call b ind node
  | S_lib node -> lib_call b ind node
  | S_cond { cond; then_ } ->
    line b "%sif (%s) {" ind (cond_to_c cond);
    List.iter (emit_baseline_stmt b ~state (ind ^ "  ")) then_;
    line b "%s}" ind
  | S_role { body; _ } -> List.iter (emit_baseline_stmt b ~state ind) body
  | S_grid_sync -> line b "%scudaStreamSynchronize(stream);" ind

let collect_kernels b ~state stmts =
  List.iter
    (function
      | S_map m -> emit_map_kernel b (Printf.sprintf "%s_map_%s" state m.m_var) m
      | S_lib _ | S_cond _ | S_role _ | S_grid_sync -> ())
    (walk stmts)

let emit_baseline sdfg =
  let b = Buffer.create 1024 in
  line b "// %s: CPU-controlled code generated by the baseline backend" sdfg.sdfg_name;
  line b "// arrays: %s"
    (String.concat ", "
       (List.map
          (fun a ->
            Printf.sprintf "%s[%s]%s" a.arr_name (e a.arr_size)
              (match a.storage with
              | Gpu_nvshmem -> " /*symmetric*/"
              | Gpu_global -> " /*device*/"
              | Host_heap -> " /*host*/"))
          sdfg.arrays));
  line b "";
  List.iter (fun st -> collect_kernels b ~state:st.st_name st.stmts) sdfg.states;
  line b "void run(int rank, int size) {";
  (match Loop.detect sdfg with
  | Ok loop ->
    let emit_state name =
      match find_state sdfg name with
      | None -> ()
      | Some st ->
        line b "  // state %s" st.st_name;
        List.iter (emit_baseline_stmt b ~state:st.st_name "  ") st.stmts;
        line b "  cudaStreamSynchronize(stream);"
    in
    List.iter emit_state (Loop.prologue sdfg loop);
    line b "  for (int %s = %s; %s; %s = %s) {" loop.Loop.l_var (e loop.Loop.l_init)
      (cond_to_c loop.Loop.l_cond) loop.Loop.l_var (e loop.Loop.l_update);
    List.iter
      (fun name ->
        match find_state sdfg name with
        | None -> ()
        | Some st ->
          line b "    // state %s" st.st_name;
          List.iter (emit_baseline_stmt b ~state:st.st_name "    ") st.stmts;
          line b "    cudaStreamSynchronize(stream);")
      loop.Loop.l_body;
    line b "  }";
    List.iter emit_state (Loop.epilogue sdfg loop)
  | Error _ ->
    List.iter
      (fun st ->
        line b "  // state %s" st.st_name;
        List.iter (emit_baseline_stmt b ~state:st.st_name "  ") st.stmts)
      sdfg.states);
  line b "}";
  Buffer.contents b

(* --- persistent emission ------------------------------------------------ *)

let rec emit_persistent_stmt b ind stmt =
  match stmt with
  | S_map m ->
    line b "%s// map %s in [%s, %s] (persistent, software-tiled)" ind m.m_var (e m.m_lo)
      (e m.m_hi);
    line b "%sfor (int i = %s + tile_start; i <= %s; i += tile_stride) {" ind (e m.m_lo)
      (e m.m_hi);
    sem_body b (ind ^ "  ") m.m_sem;
    line b "%s}" ind
  | S_lib node ->
    line b "%sif (threadIdx.x == 0 && blockIdx.x == 0) {" ind;
    lib_call b (ind ^ "  ") node;
    line b "%s}" ind
  | S_cond { cond; then_ } ->
    line b "%sif (%s) {" ind (cond_to_c cond);
    List.iter (emit_persistent_stmt b (ind ^ "  ")) then_;
    line b "%s}" ind
  | S_role { role; body } ->
    let guard =
      match role with
      | Comm_role -> "blockIdx.x < COMM_BLOCKS /* specialized comm TBs */"
      | Compute_role -> "blockIdx.x >= COMM_BLOCKS /* compute TBs */"
    in
    line b "%sif (%s) {" ind guard;
    List.iter (emit_persistent_stmt b (ind ^ "  ")) body;
    line b "%s}" ind
  | S_grid_sync -> line b "%sgrid.sync();" ind

let emit_persistent (p : Persistent_fusion.t) =
  let b = Buffer.create 1024 in
  let sdfg = p.Persistent_fusion.base in
  let loop = p.Persistent_fusion.loop in
  line b "// %s: CPU-Free persistent kernel generated by GPUPersistentKernel fusion" sdfg.sdfg_name;
  line b "// symmetric arrays: %s"
    (String.concat ", "
       (List.filter_map
          (fun a -> if a.storage = Gpu_nvshmem then Some a.arr_name else None)
          sdfg.arrays));
  line b "";
  line b "__global__ void %s_persistent(/* symmetric arrays, signals */) {" sdfg.sdfg_name;
  line b "  cooperative_groups::grid_group grid = cooperative_groups::this_grid();";
  line b "  const int rank = nvshmem_my_pe(), size = nvshmem_n_pes();";
  line b "  for (int %s = %s; %s; %s = %s) {" loop.Loop.l_var (e loop.Loop.l_init)
    (cond_to_c loop.Loop.l_cond) loop.Loop.l_var (e loop.Loop.l_update);
  List.iter
    (fun st ->
      line b "    // state %s" st.st_name;
      List.iter (emit_persistent_stmt b "    ") st.stmts)
    p.Persistent_fusion.body;
  line b "  }";
  line b "}";
  line b "";
  line b "void launch(int rank) {";
  line b "  void *args[] = { /* ... */ };";
  line b "  cudaLaunchCooperativeKernel((void *)%s_persistent, coResidentBlocks, 1024, args);"
    sdfg.sdfg_name;
  line b "  cudaDeviceSynchronize(); // the only host synchronization";
  line b "}";
  Buffer.contents b
