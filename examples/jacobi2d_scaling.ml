(* The paper's flagship workload: 2D 5-point Jacobi on 8 simulated GPUs,
   comparing all six execution schemes (four CPU-controlled baselines,
   CPU-Free, and CPU-Free + PERKS caching) at the paper's three domain
   classes, then verifying the CPU-Free result against a sequential solve.

     dune exec examples/jacobi2d_scaling.exe *)

module S = Cpufree_stencil
module Measure = Cpufree_core.Measure

let gpus = 8
let iterations = 100

let class_of name nx = Printf.sprintf "%s (%dx%d per GPU)" name nx nx

let run_class name nx =
  Printf.printf "\n--- %s ---\n" (class_of name nx);
  let dims = S.Problem.weak_scale (S.Problem.D2 { nx; ny = nx }) ~gpus in
  let problem = S.Problem.make dims ~iterations in
  let results =
    List.map
      (fun kind -> (Measure.run (S.Harness.scenario_env kind problem ~gpus)).Measure.result)
      S.Variants.all
  in
  Format.printf "%a" (fun fmt -> Measure.pp_table fmt ~header:(class_of name nx)) results;
  match results with
  | copy :: _ ->
    let free = List.nth results 4 in
    Printf.printf "CPU-Free speedup over the fully CPU-controlled baseline: %.1f%%\n"
      (Measure.speedup_pct ~baseline:copy ~ours:free)
  | [] -> ()

let () =
  run_class "small" 256;
  run_class "medium" 2048;
  run_class "large" 8192;
  (* Numerical sanity: the CPU-Free scheme computes exactly what a sequential
     Jacobi solve computes. *)
  let problem = S.Problem.make ~backed:true (S.Problem.D2 { nx = 64; ny = 64 }) ~iterations:10 in
  match S.Harness.verify_env S.Variants.Cpu_free problem ~gpus with
  | Ok err -> Printf.printf "\nVerification vs sequential reference: OK (max |err| = %.1e)\n" err
  | Error m -> Printf.printf "\nVerification FAILED: %s\n" m
