(* The compiler side of the paper, end to end: build the distributed Jacobi
   2D program in both frontend forms, walk it through the transformation
   pipeline, print the CUDA-like code each backend generates, and race the
   two on the simulated machine.

     dune exec examples/dace_pipeline.exe *)

module D = Cpufree_dace
module Measure = Cpufree_core.Measure

let gpus = 4
let app = D.Pipeline.Jacobi2d { D.Programs.nx_global = 1024; ny_global = 1024; tsteps = 20 }

let banner s =
  Printf.printf "\n%s\n%s\n" s (String.make (String.length s) '-')

let () =
  banner "1. Frontend (MPI form, as upstream distributed DaCe writes it)";
  let mpi_sdfg = D.Pipeline.frontend app D.Pipeline.Baseline_mpi ~gpus in
  Format.printf "%a@." D.Sdfg.pp_summary mpi_sdfg;

  banner "2. Baseline pipeline: GPUTransform + MapFusion -> CPU-controlled code";
  let baseline_sdfg = D.Pipeline.compile_sdfg app D.Pipeline.Baseline_mpi ~gpus in
  print_string (D.Codegen.emit_baseline baseline_sdfg);

  banner "3. CPU-Free pipeline: NVSHMEM nodes + NVSHMEMArray + expansion + persistent fusion";
  let free_sdfg = D.Pipeline.compile_sdfg app D.Pipeline.Cpu_free ~gpus in
  (match D.Persistent_fusion.apply free_sdfg with
  | Ok p ->
    Printf.printf "grid barriers per iteration: %d\n\n" (D.Persistent_fusion.barrier_count p);
    print_string (D.Codegen.emit_persistent p)
  | Error e -> failwith e);

  banner "4. Race on the simulated machine";
  let run arm = (Measure.run (D.Pipeline.scenario_env app arm ~gpus)).Measure.result in
  let b = run D.Pipeline.Baseline_mpi and f = run D.Pipeline.Cpu_free in
  Format.printf "%a@.%a@." Measure.pp_result b Measure.pp_result f;
  Printf.printf "speedup: %.1f%%\n" (Measure.speedup_pct ~baseline:b ~ours:f);

  banner "5. Verify both against the sequential reference";
  List.iter
    (fun arm ->
      let small = D.Pipeline.Jacobi2d { D.Programs.nx_global = 32; ny_global = 32; tsteps = 4 } in
      match D.Pipeline.verify_env small arm ~gpus with
      | Ok err -> Printf.printf "%-15s OK (max |err| = %.1e)\n" (D.Pipeline.arm_name arm) err
      | Error m -> Printf.printf "%-15s FAILED: %s\n" (D.Pipeline.arm_name arm) m)
    [ D.Pipeline.Baseline_mpi; D.Pipeline.Cpu_free ]
