(* What the SDFG passes make of a fixed set of programs, as text: a structural
   digest of each pass's output, the analysis results, the validation error
   lists of several bad programs, and the code each lowered form emits.
   test_dace holds these lines to the ones in Dace_pins, recorded before the
   passes were rebuilt on Sdfg's one statement walk and one operand list. *)

module D = Cpufree_dace
module Sym = D.Symbolic
module Sdfg = D.Sdfg
module A = D.Analysis

let c = Sym.int
let v = Sym.sym

(* A digest of a value's structure: equal values, and only those, digest
   the same (no sharing, so aliasing does not count). *)
let digest x = Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* The smoother of examples/custom_dace_program.ml: a distributed 1-D filter
   with signalled single-element halo puts, written with the Builder. *)
let custom_program () =
  let gpus = 4 and steps = 30 in
  let n = (1 lsl 20) / gpus in
  let t = v "t" and rank = v "rank" in
  let guard cond body = Sdfg.S_cond { cond; then_ = body } in
  let put arr ~from ~at ~to_pe ~signal =
    Sdfg.S_lib
      (Sdfg.Nv_put
         {
           src = arr;
           src_region = Sdfg.single ~offset:(c from);
           dst = arr;
           dst_region = Sdfg.single ~offset:(c at);
           to_pe;
           signal = Some (signal, Sdfg.Sig_set, t);
         })
  in
  let wait signal from_pe = Sdfg.S_lib (Sdfg.Nv_signal_wait { signal; ge_value = t; from_pe }) in
  let exchange arr ~sig_up ~sig_down =
    [
      guard (Sym.Ge (rank, c 1)) [ put arr ~from:1 ~at:(n + 1) ~to_pe:Sym.(rank - c 1) ~signal:sig_down ];
      guard (Sym.Lt (rank, c (gpus - 1))) [ put arr ~from:n ~at:0 ~to_pe:Sym.(rank + c 1) ~signal:sig_up ];
      guard (Sym.Ge (rank, c 1)) [ wait sig_up Sym.(rank - c 1) ];
      guard (Sym.Lt (rank, c (gpus - 1))) [ wait sig_down Sym.(rank + c 1) ];
    ]
  in
  let map lo hi sem =
    Sdfg.S_map
      { Sdfg.m_var = "i"; m_lo = c lo; m_hi = c hi; m_schedule = Sdfg.Sequential; m_sem = sem; m_work = c 1 }
  in
  let smooth src dst = map 1 n (Sdfg.Jacobi1d { src; dst }) in
  let init arr = map 0 (n + 1) (Sdfg.Init_global { dst = arr; global_off = Sym.(rank * c n) }) in
  let b = D.Builder.create ~name:"smoother" in
  D.Builder.symbol b "N" (1 lsl 20);
  D.Builder.array b "U" (c (n + 2));
  D.Builder.array b "V" (c (n + 2));
  List.iter (D.Builder.signal b) [ "sU_up"; "sU_down"; "sV_up"; "sV_down" ];
  D.Builder.state b "init" [ init "U"; init "V" ];
  D.Builder.time_loop b ~var:"t" ~from_:1 ~steps ~after:"init"
    ~body:
      [
        ("exch_U", exchange "U" ~sig_up:"sU_up" ~sig_down:"sU_down");
        ("smooth_V", [ smooth "U" "V" ]);
        ("exch_V", exchange "V" ~sig_up:"sV_up" ~sig_down:"sV_down");
        ("smooth_U", [ smooth "V" "U" ]);
      ];
  D.Builder.finish b ~start:"init"

(* The six built-in frontend forms at 1, 2, 4 and 8 GPUs, the global
   smoother, and the custom program. *)
let programs () =
  let c1 = { D.Programs.n_global = 64; tsteps = 3 } in
  let c2 = { D.Programs.nx_global = 16; ny_global = 16; tsteps = 2 } in
  let c3 = { D.Programs.nx3 = 8; ny3 = 8; nz3 = 16; tsteps3 = 2 } in
  List.concat_map
    (fun gpus ->
      List.map
        (fun (name, p) -> (Printf.sprintf "%s x%d" name gpus, gpus, p ~gpus))
        [
          ("jacobi1d_mpi", D.Programs.jacobi1d_mpi c1);
          ("jacobi1d_nvshmem", D.Programs.jacobi1d_nvshmem c1);
          ("jacobi2d_mpi", D.Programs.jacobi2d_mpi c2);
          ("jacobi2d_nvshmem", D.Programs.jacobi2d_nvshmem c2);
          ("heat3d_mpi", D.Programs.heat3d_mpi c3);
          ("heat3d_nvshmem", D.Programs.heat3d_nvshmem c3);
        ])
    [ 1; 2; 4; 8 ]
  @ [
      ("smoother_global x4", 4, D.Programs.smoother_global { D.Programs.sm_n = 64; sm_steps = 4 });
      ("custom x4", 4, custom_program ());
    ]

let attempt f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

let or_error f = function Ok x -> f x | Error m -> "error: " ^ m

let checked ?require_symmetric sdfg =
  match D.Validate.check ?require_symmetric sdfg with
  | Ok () -> "ok"
  | Error es -> String.concat "; " (List.map D.Validate.error_to_string es)

(* Every Sdfg.t a pass makes of [sdfg], in pipeline order. *)
let stages sdfg =
  let gpu = D.Transforms.gpu_transform sdfg in
  let fused, _ = D.Transforms.map_fusion gpu in
  let sym = D.Transforms.nvshmem_array gpu in
  let expanded = attempt (fun () -> D.Transforms.expand_nvshmem sym) in
  [ ("frontend", Ok sdfg); ("gpu", Ok gpu); ("fusion", Ok fused); ("nvshmem_array", Ok sym); ("expand", expanded) ]

let forms sdfg ~gpus =
  match D.Autotune.candidates sdfg ~gpus with
  | Error m -> [ ("candidates", Error m) ]
  | Ok plans ->
    List.map
      (fun plan -> (D.Autotune.plan_to_string plan, attempt (fun () -> D.Autotune.form plan sdfg)))
      plans

let emitted = function
  | D.Autotune.Baseline_form s -> D.Codegen.emit_baseline s
  | D.Autotune.Persistent_form p -> D.Codegen.emit_persistent p

let digest_lines () =
  List.concat_map
    (fun (name, gpus, sdfg) ->
      let line what s = Printf.sprintf "%s %s %s" name what s in
      List.concat_map
        (fun (stage, r) ->
          [
            line stage (or_error digest r);
            line (stage ^ " check") (or_error (fun s -> digest (checked s)) r);
            line (stage ^ " check-symmetric")
              (or_error (fun s -> digest (checked ~require_symmetric:true s)) r);
            line (stage ^ " mpi-check")
              (or_error
                 (fun s ->
                   match D.Transforms.replace_mpi_with_nvshmem_check s with
                   | Ok () -> "ok"
                   | Error m -> m)
                 r);
          ])
        (stages sdfg)
      @ List.concat_map
          (fun (plan, r) ->
            [
              line plan (or_error digest r);
              line (plan ^ " code") (or_error (fun f -> digest (emitted f)) r);
              line (plan ^ " barriers")
                (or_error
                   (function
                     | D.Autotune.Persistent_form p -> string_of_int (D.Persistent_fusion.barrier_count p)
                     | D.Autotune.Baseline_form _ -> "-")
                   r);
            ])
          (forms sdfg ~gpus))
    (programs ())

let analysis_text sdfg =
  let list xs = "[" ^ String.concat "," xs ^ "]" in
  let a = A.analyze sdfg in
  let map (m : A.map_info) =
    Printf.sprintf "%s/%s %s halo%d r%s w%s" m.A.mi_state m.A.mi_var
      (A.parallelism_to_string m.A.mi_parallelism)
      m.A.mi_halo (list m.A.mi_reads) (list m.A.mi_writes)
  in
  Printf.sprintf "comm=%s(%s) distributed=%b free=%s halo=%s stencil=%s maps=%s"
    (A.comm_form_to_string a.A.comm)
    (A.comm_form_to_string (A.comm_form sdfg))
    a.A.distributed
    (list (A.free_symbols sdfg))
    (list a.A.halo_arrays)
    (list (List.map (fun (s, arr) -> s ^ ":" ^ arr) a.A.stencil_states))
    (list (List.map map a.A.maps))

let analysis_lines () =
  List.concat_map
    (fun (name, gpus, sdfg) ->
      List.map
        (fun (stage, r) -> Printf.sprintf "%s %s: %s" name stage (or_error analysis_text r))
        (stages sdfg)
      @ List.map
          (fun (plan, r) ->
            Printf.sprintf "%s %s: %s" name plan
              (or_error
                 (function
                   | D.Autotune.Baseline_form s -> analysis_text s
                   | D.Autotune.Persistent_form p -> analysis_text p.D.Persistent_fusion.base)
                 r))
          (forms sdfg ~gpus))
    (programs ())

(* Programs with several errors in one node: each list is pinned whole, in
   order, so a pass that reads a node's operands in another order shows. *)
let with_state sdfg stmts =
  { sdfg with Sdfg.states = sdfg.Sdfg.states @ [ { Sdfg.st_name = "bad"; stmts } ] }

let mutants () =
  let nv = D.Programs.jacobi1d_nvshmem { D.Programs.n_global = 32; tsteps = 3 } ~gpus:4 in
  let mpi = D.Programs.jacobi2d_mpi { D.Programs.nx_global = 16; ny_global = 16; tsteps = 2 } ~gpus:4 in
  let region = { Sdfg.offset = v "off?"; stride = c 1; count = v "cnt?" } in
  let putmem_signal =
    Sdfg.S_lib
      (Sdfg.Nv_putmem_signal
         {
           src = "GHOST";
           src_region = region;
           dst = "A";
           dst_region = Sdfg.single ~offset:(c 0);
           to_pe = v "peer?";
           signal = "NOSIG";
           sig_kind = Sdfg.Sig_set;
           sig_value = v "t?";
         })
  in
  let put =
    Sdfg.S_lib
      (Sdfg.Nv_put
         {
           src = "A";
           src_region = Sdfg.single ~offset:(c 1);
           dst = "PHANTOM";
           dst_region = region;
           to_pe = c 0;
           signal = Some ("NOSIG", Sdfg.Sig_add, v "t?");
         })
  in
  let jacobi2d =
    Sdfg.S_map
      {
        Sdfg.m_var = "r";
        m_lo = v "lo?";
        m_hi = c 3;
        m_schedule = Sdfg.Gpu_device;
        m_sem =
          Sdfg.Multi
            [
              Sdfg.Jacobi2d
                { src = "GHOST"; dst = "A"; row_width = v "w?"; col_lo = c 1; col_hi = v "hi?" };
              Sdfg.Init_global { dst = "NOPE"; global_off = v "g?" };
            ];
        m_work = v "work?";
      }
  in
  let isend =
    Sdfg.S_lib
      (Sdfg.Mpi_isend { arr = "GHOST"; region; dst_rank = v "to?"; tag = 1; req = "rq" })
  in
  let guarded = Sdfg.S_cond { cond = Sym.Lt (v "cond?", c 1); then_ = [ putmem_signal; isend ] } in
  let role = Sdfg.S_role { role = Sdfg.Comm_role; body = [ jacobi2d; Sdfg.S_grid_sync; put ] } in
  let expanded_global =
    D.Transforms.expand_nvshmem (D.Transforms.gpu_transform nv)
  in
  [
    ("putmem_signal", with_state nv [ putmem_signal ], false);
    ("putmem_signal symmetric", with_state nv [ putmem_signal ], true);
    ("jacobi2d", with_state mpi [ jacobi2d ], false);
    ("put", with_state nv [ put ], true);
    ("nested", with_state nv [ guarded; role ], true);
    ("expanded without nvshmem_array", expanded_global, true);
  ]

let mutant_lines () =
  List.concat_map
    (fun (name, sdfg, require_symmetric) ->
      match D.Validate.check ~require_symmetric sdfg with
      | Ok () -> [ name ^ ": ok" ]
      | Error es -> List.map (fun e -> name ^ ": " ^ D.Validate.error_to_string e) es)
    (mutants ())
