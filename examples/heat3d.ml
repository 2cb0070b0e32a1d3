(* A physical scenario: transient heat conduction in a 3D block, solved with
   the 7-point Jacobi relaxation the paper's §6.1 evaluates, z-partitioned
   over 8 simulated GPUs.

   This is the strong-scaling regime the paper argues CPU-Free execution is
   for: a fixed global domain whose per-GPU share shrinks as devices are
   added, until host-incurred latencies dominate the baselines.

     dune exec examples/heat3d.exe *)

module E = Cpufree_engine
module S = Cpufree_stencil
module Measure = Cpufree_core.Measure
module Time = E.Time

let dims = S.Problem.D3 { nx = 256; ny = 256; nz = 256 }
let iterations = 100

let run kind problem ~gpus = (Measure.run (S.Harness.scenario_env kind problem ~gpus)).Measure.result

let () =
  Printf.printf "3D heat diffusion, %s global domain, %d Jacobi iterations\n"
    (S.Problem.dims_to_string dims) iterations;
  Printf.printf "\nStrong scaling (per-iteration time, us):\n";
  Printf.printf "%6s %18s %18s %12s\n" "gpus" "baseline-nvshmem" "cpu-free" "speedup";
  List.iter
    (fun gpus ->
      let problem = S.Problem.make dims ~iterations in
      let base = run S.Variants.Nvshmem problem ~gpus in
      let free = run S.Variants.Cpu_free problem ~gpus in
      Printf.printf "%6d %18.2f %18.2f %11.1f%%\n" gpus
        (Time.to_us_float base.Measure.per_iter)
        (Time.to_us_float free.Measure.per_iter)
        (Measure.speedup_pct ~baseline:base ~ours:free))
    [ 1; 2; 4; 8 ];

  (* The same comparison with computation disabled isolates what the paper
     calls "no compute" time: the pure communication/synchronization floor. *)
  Printf.printf "\nCommunication floor (no-compute, per-iteration, us):\n";
  Printf.printf "%6s %18s %18s\n" "gpus" "baseline-nvshmem" "cpu-free";
  List.iter
    (fun gpus ->
      let problem = S.Problem.make ~compute:false dims ~iterations in
      let base = run S.Variants.Nvshmem problem ~gpus in
      let free = run S.Variants.Cpu_free problem ~gpus in
      Printf.printf "%6d %18.2f %18.2f\n" gpus
        (Time.to_us_float base.Measure.per_iter)
        (Time.to_us_float free.Measure.per_iter))
    [ 2; 4; 8 ];

  (* Physics sanity on a small instance: after enough relaxation steps the
     interior temperature range shrinks (diffusion smooths the field), and
     the distributed result matches the sequential solver exactly. *)
  let small =
    S.Problem.make ~backed:true (S.Problem.D3 { nx = 12; ny = 12; nz = 24 }) ~iterations:8
  in
  match S.Harness.verify_env S.Variants.Cpu_free small ~gpus:4 with
  | Ok err ->
    Printf.printf "\nVerification of the distributed solve: OK (max |err| = %.1e)\n" err
  | Error m -> Printf.printf "\nVerification FAILED: %s\n" m
