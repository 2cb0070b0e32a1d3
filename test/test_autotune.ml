(* The generic auto-offload pass: analysis classification, 1-D sharding
   (placement) verified numerically against the sequential reference, and
   the autotuner's search — determinism across runs and observers, the
   match-or-beat guarantee against the hand-built pipelines, agreement with
   probing every candidate on its own, and how many distinct programs it
   simulates. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module D = Cpufree_dace
module Analysis = D.Analysis
module Placement = D.Placement
module Autotune = D.Autotune
module Pipeline = D.Pipeline
module Programs = D.Programs
module Sdfg = D.Sdfg
module Measure = Cpufree_core.Measure
module Sim_env = Cpufree_obs.Sim_env
module Time = E.Time

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let cfg1d = { Programs.n_global = 64; tsteps = 4 }
let smoother_cfg = { Programs.sm_n = 64; sm_steps = 4 }

(* Large enough that offloading and sharding pay for the kernel-launch and
   exchange overheads (the crossover sits between 64k and 262k cells). *)
let smoother_big = { Programs.sm_n = 262144; sm_steps = 16 }

(* --- analysis ------------------------------------------------------------- *)

let analysis_tests =
  [
    Alcotest.test_case "stencil maps are data-parallel with halo 1" `Quick (fun () ->
        let sem = Sdfg.Jacobi1d { src = "A"; dst = "B" } in
        check_string "class" "data-parallel"
          (Analysis.parallelism_to_string (Analysis.classify_sem sem));
        check_int "halo" 1 (Analysis.sem_halo sem));
    Alcotest.test_case "in-place stencil is loop-carried" `Quick (fun () ->
        let sem = Sdfg.Jacobi1d { src = "A"; dst = "A" } in
        check_string "class" "loop-carried"
          (Analysis.parallelism_to_string (Analysis.classify_sem sem)));
    Alcotest.test_case "comm form distinguishes the three frontends" `Quick (fun () ->
        let form s = Analysis.comm_form_to_string (Analysis.comm_form s) in
        check_string "mpi" "mpi" (form (Programs.jacobi1d_mpi cfg1d ~gpus:4));
        check_string "nvshmem" "nvshmem" (form (Programs.jacobi1d_nvshmem cfg1d ~gpus:4));
        check_string "none" "none" (form (Programs.smoother_global smoother_cfg)));
    Alcotest.test_case "global smoother is not distributed; SPMD forms are" `Quick
      (fun () ->
        check_bool "global" false
          (Analysis.distributed (Programs.smoother_global smoother_cfg));
        check_bool "mpi" true (Analysis.distributed (Programs.jacobi1d_mpi cfg1d ~gpus:4)));
    Alcotest.test_case "halo arrays and stencil states of the smoother" `Quick (fun () ->
        let a = Analysis.analyze (Programs.smoother_global smoother_cfg) in
        check (Alcotest.list Alcotest.string) "halo arrays" [ "U"; "V"; "W" ] a.Analysis.halo_arrays;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "stencil states"
          [ ("smooth_V", "U"); ("smooth_W", "V"); ("smooth_U", "W") ]
          a.Analysis.stencil_states);
  ]

(* --- placement ------------------------------------------------------------ *)

let verify_smoother ?(cfg = smoother_cfg) ~gpus (built : D.Exec.built) =
  let reference = Programs.reference_smoother cfg in
  let n = cfg.Programs.sm_n / gpus in
  let worst = ref 0.0 in
  for pe = 0 to gpus - 1 do
    match built.D.Exec.read_array "U" ~pe with
    | None -> Alcotest.fail (Printf.sprintf "rank %d: array U not found" pe)
    | Some buf ->
      check_bool "backed" false (G.Buffer.is_phantom buf);
      for i = 1 to n do
        let err = Float.abs (G.Buffer.get buf i -. reference.((pe * n) + i)) in
        if err > !worst then worst := err
      done
  done;
  check_bool "tiny error" true (!worst <= 1e-9)

let run_plan ?(iterations = smoother_cfg.Programs.sm_steps) ~backed plan sdfg =
  let built = Autotune.build ~backed plan sdfg in
  let (_ : Measure.result) =
    Measure.run_env ~label:"test" ~gpus:plan.Autotune.gpus_used ~iterations
      built.D.Exec.program
  in
  built

let placement_tests =
  [
    Alcotest.test_case "shard_1d splits the global width" `Quick (fun () ->
        match Placement.shard_1d (Programs.smoother_global smoother_cfg) ~gpus:4 with
        | Error e -> Alcotest.fail e
        | Ok sh ->
          check_int "local" 16 sh.Placement.sh_local;
          check_int "global" 64 sh.Placement.sh_global;
          (* one exchange per stencil state, each with its own signal pair *)
          check_int "signals" 6 (List.length sh.Placement.sh_sdfg.Sdfg.sdfg_signals));
    Alcotest.test_case "sharded smoother matches the sequential reference" `Quick
      (fun () ->
        let gpus = 4 in
        let plan =
          {
            Autotune.shard = true;
            gpus_used = gpus;
            offload = Autotune.Offload_persistent { relax = true; specialize_tb = false };
          }
        in
        let built = run_plan ~backed:true plan (Programs.smoother_global smoother_cfg) in
        verify_smoother ~gpus built);
    Alcotest.test_case "already-distributed programs are rejected" `Quick (fun () ->
        match Placement.shard_1d (Programs.jacobi1d_nvshmem cfg1d ~gpus:4) ~gpus:4 with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error e -> check_bool "mentions distributed" true (Astring.String.is_infix ~affix:"distributed" e));
    Alcotest.test_case "indivisible widths are rejected" `Quick (fun () ->
        match
          Placement.shard_1d
            (Programs.smoother_global { Programs.sm_n = 10; sm_steps = 2 })
            ~gpus:4
        with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error e -> check_bool "names the width" true (Astring.String.is_infix ~affix:"10" e));
  ]

(* --- search --------------------------------------------------------------- *)

let search_exn ?env sdfg ~gpus ~iterations =
  match Autotune.search ?env sdfg ~gpus ~iterations with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let apps =
  [
    ("jacobi1d", Pipeline.Jacobi1d cfg1d, 4);
    ("jacobi2d", Pipeline.Jacobi2d { Programs.nx_global = 16; ny_global = 16; tsteps = 3 }, 3);
    ("heat3d", Pipeline.Heat3d { Programs.nx3 = 6; ny3 = 6; nz3 = 16; tsteps3 = 3 }, 3);
  ]

let beats_hand_built (name, app, iters) =
  Alcotest.test_case (name ^ ": search matches or beats the hand-built arms") `Quick
    (fun () ->
      List.iter
        (fun arm ->
          let gpus = 4 in
          let sdfg = Pipeline.frontend app arm ~gpus in
          let hand = Pipeline.compile app arm ~gpus in
          let hand_cost =
            (Measure.probe_env ~label:"hand" ~gpus ~iterations:iters hand.D.Exec.program)
              .Measure.total
          in
          let d = search_exn sdfg ~gpus ~iterations:iters in
          check_bool
            (Printf.sprintf "%s: %s <= hand %s" (Pipeline.arm_name arm)
               (Time.to_string d.Autotune.predicted)
               (Time.to_string hand_cost))
            true
            Time.(d.Autotune.predicted <= hand_cost))
        [ Pipeline.Baseline_mpi; Pipeline.Cpu_free ])

(* The reference the search must agree with: every candidate built and
   probed on its own, with no sharing between candidates. *)
let reference_search sdfg ~gpus ~iterations =
  match Autotune.candidates sdfg ~gpus with
  | Error e -> Alcotest.fail e
  | Ok plans ->
    let evaluated =
      List.filter_map
        (fun plan ->
          match Autotune.build plan sdfg with
          | exception (Invalid_argument _ | D.Exec.Lowering_error _) -> None
          | built ->
            Some
              ( plan,
                (Measure.probe_env ~label:(Autotune.plan_to_string plan)
                   ~gpus:plan.Autotune.gpus_used ~iterations built.D.Exec.program)
                  .Measure.total ))
        plans
    in
    let best, predicted =
      List.fold_left
        (fun (bp, bc) (p, c) -> if Time.(c < bc) then (p, c) else (bp, bc))
        (List.hd evaluated) (List.tl evaluated)
    in
    (best, predicted, evaluated)

let plan_cost = Alcotest.(pair string int)
let show (p, c) = (Autotune.plan_to_string p, Time.to_ns c)

let agrees_with_reference (label, sdfg, gpus, iterations) =
  Alcotest.test_case (label ^ ": search agrees with probing every candidate") `Quick (fun () ->
      let d = search_exn sdfg ~gpus ~iterations in
      let best, predicted, evaluated = reference_search sdfg ~gpus ~iterations in
      check plan_cost "best" (show (best, predicted)) (show (d.Autotune.best, d.Autotune.predicted));
      check (Alcotest.list plan_cost) "evaluated" (List.map show evaluated)
        (List.map show d.Autotune.evaluated);
      check_bool "simulated <= evaluated" true
        (d.Autotune.simulated >= 1 && d.Autotune.simulated <= List.length d.Autotune.evaluated))

let jacobi2d n = Pipeline.Jacobi2d { Programs.nx_global = n; ny_global = n; tsteps = 3 }

let reference_cases =
  List.concat_map
    (fun (name, app, iters) ->
      List.concat_map
        (fun arm ->
          List.map
            (fun gpus ->
              ( Printf.sprintf "%s %s x%d" name (Pipeline.arm_name arm) gpus,
                Pipeline.frontend app arm ~gpus,
                gpus,
                iters ))
            [ 2; 4; 8 ])
        [ Pipeline.Baseline_mpi; Pipeline.Cpu_free ])
    apps
  @ List.map
      (fun arm ->
        ( Printf.sprintf "jacobi2d 8x8 %s x8" (Pipeline.arm_name arm),
          Pipeline.frontend (jacobi2d 8) arm ~gpus:8,
          8,
          3 ))
      [ Pipeline.Baseline_mpi; Pipeline.Cpu_free ]
  @ List.map
      (fun (label, cfg) ->
        (label, Programs.smoother_global cfg, 4, cfg.Programs.sm_steps))
      [ ("small smoother", smoother_cfg); ("big smoother", smoother_big) ]

(* How many distinct programs a search probes. With specialization fusing
   every pair, relax+specialize-tb and specialize-tb coincide; on an 8x8
   grid over 8 GPUs it fuses none, and each specialized plan coincides with
   its unspecialized twin. *)
let simulated_pin (label, sdfg, gpus, iterations, simulated, evaluated) =
  Alcotest.test_case (label ^ ": distinct programs simulated once") `Quick (fun () ->
      let d = search_exn sdfg ~gpus ~iterations in
      check_int "evaluated" evaluated (List.length d.Autotune.evaluated);
      check_int "simulated" simulated d.Autotune.simulated)

let simulated_pins =
  [
    ("jacobi2d 16x16 x4", Pipeline.frontend (jacobi2d 16) Pipeline.Cpu_free ~gpus:4, 4, 3, 3, 4);
    ("jacobi2d 8x8 x8", Pipeline.frontend (jacobi2d 8) Pipeline.Cpu_free ~gpus:8, 8, 3, 2, 4);
    ( "big smoother x4",
      Programs.smoother_global smoother_big,
      4,
      smoother_big.Programs.sm_steps,
      6,
      7 );
  ]

let search_tests =
  List.map beats_hand_built apps
  @ List.map agrees_with_reference reference_cases
  @ List.map simulated_pin simulated_pins
  @ [
      Alcotest.test_case "search is deterministic across runs and observers" `Quick
        (fun () ->
          let sdfg = Programs.smoother_global smoother_cfg in
          let run env = search_exn ~env sdfg ~gpus:4 ~iterations:smoother_cfg.Programs.sm_steps in
          let d1 = run Sim_env.default in
          let d2 = run Sim_env.default in
          let d3 = run (Sim_env.make ~metrics:(Cpufree_obs.Metrics.create ()) ()) in
          let plan d = Autotune.plan_to_string d.Autotune.best in
          check_string "rerun" (plan d1) (plan d2);
          check_string "observed" (plan d1) (plan d3);
          check_int "same cost" 0 (Time.compare d1.Autotune.predicted d3.Autotune.predicted));
      Alcotest.test_case "smoother: search offloads host-size problems nowhere" `Quick
        (fun () ->
          (* At 64 cells the launch and exchange overheads dwarf the work:
             the honest winner is the un-offloaded host loop. *)
          let d =
            search_exn (Programs.smoother_global smoother_cfg) ~gpus:4
              ~iterations:smoother_cfg.Programs.sm_steps
          in
          check_string "host wins small" "host x1" (Autotune.plan_to_string d.Autotune.best));
      Alcotest.test_case "smoother: search shards large problems across the machine" `Quick
        (fun () ->
          let d =
            search_exn (Programs.smoother_global smoother_big) ~gpus:4
              ~iterations:smoother_big.Programs.sm_steps
          in
          check_bool "sharded" true d.Autotune.best.Autotune.shard;
          check_int "uses all gpus" 4 d.Autotune.best.Autotune.gpus_used;
          (* single-GPU fallbacks were also evaluated *)
          check_bool "evaluated fallbacks" true (List.length d.Autotune.evaluated > 4));
      Alcotest.test_case "non-enum SDFG runs end-to-end through the searched plan" `Quick
        (fun () ->
          let sdfg = Programs.smoother_global smoother_big in
          let d = search_exn sdfg ~gpus:4 ~iterations:smoother_big.Programs.sm_steps in
          check_bool "searched plan shards" true d.Autotune.best.Autotune.shard;
          let built =
            run_plan ~iterations:smoother_big.Programs.sm_steps ~backed:true
              d.Autotune.best sdfg
          in
          verify_smoother ~cfg:smoother_big ~gpus:d.Autotune.best.Autotune.gpus_used built);
      Alcotest.test_case "mixed MPI/NVSHMEM programs are rejected" `Quick (fun () ->
          let mpi = Programs.jacobi1d_mpi cfg1d ~gpus:2 in
          let nv = Programs.jacobi1d_nvshmem cfg1d ~gpus:2 in
          let mixed =
            {
              mpi with
              Sdfg.states =
                mpi.Sdfg.states
                @ [ List.find (fun s -> s.Sdfg.st_name = "exch_A") nv.Sdfg.states ];
            }
          in
          match Autotune.candidates mixed ~gpus:2 with
          | Ok _ -> Alcotest.fail "expected rejection"
          | Error e -> check_bool "says mixed" true (Astring.String.is_infix ~affix:"mixes" e));
    ]

let () =
  Alcotest.run "autotune"
    [
      ("analysis", analysis_tests);
      ("placement", placement_tests);
      ("search", search_tests);
    ]
