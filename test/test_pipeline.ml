(* End-to-end compiler pipeline tests: full compile-and-run of both arms on
   the simulated machine, numerical verification against the sequential
   references, emitted-code content checks, and performance-shape checks
   mirroring the paper's §6.2 claims. *)

module E = Cpufree_engine
module D = Cpufree_dace
module Pipeline = D.Pipeline
module Programs = D.Programs
module Codegen = D.Codegen
module Measure = Cpufree_core.Measure
module Time = E.Time

let check = Alcotest.check
let check_bool = check Alcotest.bool
let contains affix s = Astring.String.is_infix ~affix s

(* A compiled app/arm pair as a job through Measure.run. *)
let run_env app arm ~gpus = (Measure.run (Pipeline.scenario_env app arm ~gpus)).Measure.result

let app1d = Pipeline.Jacobi1d { Programs.n_global = 64; tsteps = 4 }
let app2d = Pipeline.Jacobi2d { Programs.nx_global = 16; ny_global = 16; tsteps = 3 }
let app3d = Pipeline.Heat3d { Programs.nx3 = 6; ny3 = 6; nz3 = 16; tsteps3 = 3 }

(* --- numerical verification matrix ---------------------------------------- *)

let verify_case app arm gpus =
  let name =
    Printf.sprintf "%s %s gpus=%d" (Pipeline.app_name app) (Pipeline.arm_name arm) gpus
  in
  Alcotest.test_case name `Quick (fun () ->
      match Pipeline.verify_env app arm ~gpus with
      | Ok err -> check_bool "tiny error" true (err <= 1e-9)
      | Error m -> Alcotest.fail m)

let verification_tests =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun arm -> List.map (fun g -> verify_case app arm g) [ 1; 2; 4; 8 ])
        [ Pipeline.Baseline_mpi; Pipeline.Cpu_free ])
    [ app1d; app2d; app3d ]

(* --- references ------------------------------------------------------------- *)

let reference_tests =
  [
    Alcotest.test_case "1D reference smooths the interior" `Quick (fun () ->
        let cfg = { Programs.n_global = 32; tsteps = 0 } in
        let r0 = Programs.reference1d cfg in
        let r9 = Programs.reference1d { cfg with Programs.tsteps = 9 } in
        let range a =
          let interior = Array.sub a 1 32 in
          Array.fold_left Float.max neg_infinity interior
          -. Array.fold_left Float.min infinity interior
        in
        check_bool "smoother" true (range r9 < range r0));
    Alcotest.test_case "2D reference keeps the fixed shell" `Quick (fun () ->
        let cfg = { Programs.nx_global = 8; ny_global = 8; tsteps = 5 } in
        let r = Programs.reference2d cfg in
        check (Alcotest.float 1e-12) "corner" (D.Exec.init_value 0) r.(0));
    Alcotest.test_case "3D reference smooths the interior" `Quick (fun () ->
        let cfg = { Programs.nx3 = 6; ny3 = 6; nz3 = 6; tsteps3 = 0 } in
        let range a =
          let w = 8 in
          let pw = 64 in
          let lo = ref infinity and hi = ref neg_infinity in
          for z = 1 to 6 do
            for y = 1 to 6 do
              for x = 1 to 6 do
                let v = a.((z * pw) + (y * w) + x) in
                if v < !lo then lo := v;
                if v > !hi then hi := v
              done
            done
          done;
          !hi -. !lo
        in
        check_bool "smoother" true
          (range (Programs.reference3d { cfg with Programs.tsteps3 = 10 })
          < range (Programs.reference3d cfg)));
  ]

(* --- emitted code ------------------------------------------------------------ *)

let emitted_baseline ?(gpus = 8) app =
  Codegen.emit_baseline (Pipeline.compile_sdfg app Pipeline.Baseline_mpi ~gpus)

let emitted_persistent ?(gpus = 8) app =
  let sdfg = Pipeline.compile_sdfg app Pipeline.Cpu_free ~gpus in
  match D.Persistent_fusion.apply sdfg with
  | Ok p -> Codegen.emit_persistent p
  | Error e -> Alcotest.fail e

(* The emitted code of every app and form, pinned by md5: the halo
   exchange's request names, tags, flag names and regions all reach it, so
   a change to the frontends' communication shows up here. Jacobi 2D at 8
   GPUs adds the rectangular rank grid. *)
let emitted_md5_case (app, arm, gpus, want) =
  let name =
    Printf.sprintf "%s %s at %d GPUs emits pinned code" (Pipeline.app_name app)
      (Pipeline.arm_name arm) gpus
  in
  Alcotest.test_case name `Quick (fun () ->
      let code =
        match arm with
        | Pipeline.Baseline_mpi -> emitted_baseline ~gpus app
        | Pipeline.Cpu_free -> emitted_persistent ~gpus app
      in
      check Alcotest.string "md5" want (Digest.to_hex (Digest.string code)))

let emitted_md5_tests =
  List.map emitted_md5_case
    [
      (app1d, Pipeline.Baseline_mpi, 4, "855f4793c1ecb719c3947ef5ed31672c");
      (app1d, Pipeline.Cpu_free, 4, "2d76b650d533afcb15c2b686101dbd9a");
      (app2d, Pipeline.Baseline_mpi, 4, "a9d82aac8584a171a29601394940f52c");
      (app2d, Pipeline.Cpu_free, 4, "73f8eee2499603085ae77776c036815e");
      (app3d, Pipeline.Baseline_mpi, 4, "4b1309f3820c65842bdfe86faf7ebe91");
      (app3d, Pipeline.Cpu_free, 4, "15dfeff46ef1d7cb23d1efd79c2cef43");
      (app2d, Pipeline.Baseline_mpi, 8, "1e7f15c22bb493dc33624f2de2211ecc");
      (app2d, Pipeline.Cpu_free, 8, "5dc59a727c6692c7ad13a279d9e754d1");
    ]

(* Each emit writes its own buffer: a second domain emitting other
   programs meanwhile cannot interleave lines into this one's. *)
let concurrent_emit_test =
  Alcotest.test_case "two domains emitting at once get the sequential bytes" `Quick (fun () ->
      let emit_all () =
        List.concat_map
          (fun app -> List.init 20 (fun _ -> (emitted_baseline app, emitted_persistent app)))
          [ app1d; app2d; app3d ]
      in
      let want = emit_all () in
      let other = Domain.spawn emit_all in
      let mine = emit_all () in
      let theirs = Domain.join other in
      check_bool "this domain" true (mine = want);
      check_bool "the other domain" true (theirs = want))

let codegen_tests =
  [
    Alcotest.test_case "baseline 1D emits MPI calls and stream syncs" `Quick (fun () ->
        let code = emitted_baseline app1d in
        check_bool "isend" true (contains "MPI_Isend" code);
        check_bool "irecv" true (contains "MPI_Irecv" code);
        check_bool "waitall" true (contains "MPI_Waitall" code);
        check_bool "sync before comm" true (contains "cudaStreamSynchronize" code);
        check_bool "loop" true (contains "for (int t = 1;" code));
    Alcotest.test_case "baseline 2D emits Type_vector for strided columns" `Quick (fun () ->
        let code = emitted_baseline app2d in
        check_bool "type vector" true (contains "MPI_Type_vector" code));
    Alcotest.test_case "persistent 1D emits p + signal ops in a cooperative kernel" `Quick
      (fun () ->
        let code = emitted_persistent app1d in
        check_bool "grid sync" true (contains "grid.sync();" code);
        check_bool "cooperative" true (contains "cudaLaunchCooperativeKernel" code);
        check_bool "single-element put" true (contains "nvshmem_float_p" code);
        check_bool "signal op" true (contains "nvshmem_signal_op" code);
        check_bool "signal wait" true (contains "nvshmem_signal_wait_until" code);
        check_bool "one host sync only" true (contains "the only host synchronization" code));
    Alcotest.test_case "persistent 2D emits putmem_signal for rows, iput+quiet for columns"
      `Quick (fun () ->
        let code = emitted_persistent app2d in
        check_bool "rows" true (contains "nvshmemx_putmem_signal_nbi_block" code);
        check_bool "columns" true (contains "nvshmem_float_iput" code);
        check_bool "ordering" true (contains "nvshmem_quiet" code));
    Alcotest.test_case "persistent heat3d uses whole-plane putmem_signal" `Quick (fun () ->
        let code = emitted_persistent app3d in
        check_bool "contiguous planes" true (contains "nvshmemx_putmem_signal_nbi_block" code);
        check_bool "no strided ops" false (contains "nvshmem_float_iput" code));
    Alcotest.test_case "persistent code contains no MPI and no discrete launches" `Quick
      (fun () ->
        let code = emitted_persistent app2d in
        check_bool "no mpi" false (contains "MPI_Isend" code);
        check_bool "no stream sync in kernel" false (contains "cudaStreamSynchronize" code));
  ]

(* --- performance shape (§6.2.3) ---------------------------------------------- *)

let bench1d = Pipeline.Jacobi1d { Programs.n_global = 1 lsl 23; tsteps = 10 }
let bench2d = Pipeline.Jacobi2d { Programs.nx_global = 2048; ny_global = 2048; tsteps = 10 }

let shape_tests =
  [
    Alcotest.test_case "CPU-Free beats the DaCe baseline at 8 GPUs (1D)" `Slow (fun () ->
        let b = run_env bench1d Pipeline.Baseline_mpi ~gpus:8 in
        let f = run_env bench1d Pipeline.Cpu_free ~gpus:8 in
        check_bool "faster" true Time.(f.Measure.total < b.Measure.total));
    Alcotest.test_case "CPU-Free wins even bigger on strided 2D" `Slow (fun () ->
        let b1 = run_env bench1d Pipeline.Baseline_mpi ~gpus:8 in
        let f1 = run_env bench1d Pipeline.Cpu_free ~gpus:8 in
        let b2 = run_env bench2d Pipeline.Baseline_mpi ~gpus:8 in
        let f2 = run_env bench2d Pipeline.Cpu_free ~gpus:8 in
        let s1 = Measure.speedup_pct ~baseline:b1 ~ours:f1 in
        let s2 = Measure.speedup_pct ~baseline:b2 ~ours:f2 in
        check_bool "2D speedup larger" true (s2 > s1));
    Alcotest.test_case "baseline 2D is communication-dominated" `Slow (fun () ->
        let r = run_env bench2d Pipeline.Baseline_mpi ~gpus:8 in
        (* Host-side control dominates; device communication alone is a lower
           bound. The key observable: poor overlap. *)
        check_bool "little overlap" true (r.Measure.overlap < 0.5));
    Alcotest.test_case "relaxed barriers are at least as fast as naive" `Slow (fun () ->
        let run relax =
          let built = Pipeline.compile ~relax bench1d Pipeline.Cpu_free ~gpus:4 in
          Measure.run_env ~label:"x" ~gpus:4 ~iterations:10 built.D.Exec.program
        in
        let relaxed = run true and naive = run false in
        check_bool "relax helps" true Time.(relaxed.Measure.total <= naive.Measure.total));
    Alcotest.test_case "frontend and compiled SDFG both validate" `Quick (fun () ->
        List.iter
          (fun app ->
            List.iter
              (fun arm ->
                D.Validate.check_exn (Pipeline.frontend app arm ~gpus:4);
                ignore (Pipeline.compile_sdfg app arm ~gpus:4))
              [ Pipeline.Baseline_mpi; Pipeline.Cpu_free ])
          [ app1d; app2d ]);
  ]

(* --- §5.4 future work: thread-block-specialized scheduling ---------------- *)

let specialize_tests =
  [
    Alcotest.test_case "specialized 1D matches the reference on all GPU counts" `Quick
      (fun () ->
        List.iter
          (fun gpus ->
            match Pipeline.verify_env ~specialize_tb:true app1d Pipeline.Cpu_free ~gpus with
            | Ok _ -> ()
            | Error m -> Alcotest.fail (Printf.sprintf "gpus=%d: %s" gpus m))
          [ 1; 2; 4; 8 ]);
    Alcotest.test_case "specialized 2D matches the reference on all GPU counts" `Quick
      (fun () ->
        List.iter
          (fun gpus ->
            match Pipeline.verify_env ~specialize_tb:true app2d Pipeline.Cpu_free ~gpus with
            | Ok _ -> ()
            | Error m -> Alcotest.fail (Printf.sprintf "gpus=%d: %s" gpus m))
          [ 1; 2; 4; 8 ]);
    Alcotest.test_case "specialization fuses every exchange/compute pair" `Quick (fun () ->
        let sdfg = Pipeline.compile_sdfg app2d Pipeline.Cpu_free ~gpus:4 in
        match D.Persistent_fusion.apply sdfg with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let p', fused = D.Persistent_fusion.specialize_tb p in
          check Alcotest.int "two pairs" 2 fused;
          (* Fewer states and thus fewer per-iteration barriers. *)
          check_bool "fewer barriers" true
            (D.Persistent_fusion.barrier_count p' < D.Persistent_fusion.barrier_count p));
    Alcotest.test_case "specialized schedule overlaps and is faster" `Slow (fun () ->
        let big =
          Pipeline.Jacobi2d { Programs.nx_global = 4096; ny_global = 4096; tsteps = 20 }
        in
        let run sp =
          let b = Pipeline.compile ~specialize_tb:sp big Pipeline.Cpu_free ~gpus:4 in
          Measure.run_env ~label:"x" ~gpus:4 ~iterations:20 b.D.Exec.program
        in
        let conservative = run false and specialized = run true in
        check_bool "faster" true
          Time.(specialized.Measure.total < conservative.Measure.total);
        check_bool "overlapped" true (specialized.Measure.overlap > conservative.Measure.overlap));
    Alcotest.test_case "specialized heat3d matches the reference (plane splitting)" `Quick
      (fun () ->
        List.iter
          (fun gpus ->
            match Pipeline.verify_env ~specialize_tb:true app3d Pipeline.Cpu_free ~gpus with
            | Ok _ -> ()
            | Error m -> Alcotest.fail (Printf.sprintf "gpus=%d: %s" gpus m))
          [ 1; 2; 4 ]);
    Alcotest.test_case "too-narrow domains are left unspecialized" `Quick (fun () ->
        (* 2 interior rows per rank: no interior remains after splitting. *)
        let tiny = Pipeline.Jacobi2d { Programs.nx_global = 8; ny_global = 8; tsteps = 2 } in
        let sdfg = Pipeline.compile_sdfg tiny Pipeline.Cpu_free ~gpus:16 in
        match D.Persistent_fusion.apply sdfg with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let _, fused = D.Persistent_fusion.specialize_tb p in
          check Alcotest.int "nothing fused" 0 fused);
    Alcotest.test_case "emitted specialized kernel guards by block group" `Quick (fun () ->
        let sdfg = Pipeline.compile_sdfg app2d Pipeline.Cpu_free ~gpus:4 in
        match D.Persistent_fusion.apply sdfg with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let p', _ = D.Persistent_fusion.specialize_tb p in
          let code = Codegen.emit_persistent p' in
          check_bool "comm guard" true (contains "COMM_BLOCKS" code);
          check_bool "still cooperative" true (contains "cudaLaunchCooperativeKernel" code));
  ]

let pipeline_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"both arms match the reference on random 1D programs" ~count:15
         QCheck.(triple (int_range 1 3) (int_range 2 16) (int_range 0 5))
         (fun (log_gpus, chunk, tsteps) ->
           let gpus = 1 lsl log_gpus in
           let app = Pipeline.Jacobi1d { Programs.n_global = chunk * gpus; tsteps } in
           let ok arm = Result.is_ok (Pipeline.verify_env app arm ~gpus) in
           ok Pipeline.Baseline_mpi && ok Pipeline.Cpu_free));
  ]

let () =
  Alcotest.run "pipeline"
    [
      ("verify", verification_tests);
      ("references", reference_tests);
      ("codegen", codegen_tests @ emitted_md5_tests @ [ concurrent_emit_test ]);
      ("shape", shape_tests);
      ("specialize-tb", specialize_tests);
      ("properties", pipeline_props);
    ]
