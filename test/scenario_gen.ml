(* Scenarios as generable values: every component drawn from a small pool
   by index, so shrinking stays meaningful and every draw is a valid
   scenario by construction (the GPU counts split evenly on every topology
   and cover every GPU the fault plans name). *)

module Scenario = Cpufree_core.Scenario
module Fault = Cpufree_fault.Fault
module S = Cpufree_stencil

let topology_pool =
  [|
    None;
    Some Cpufree_machine.Topology.Hgx;
    Some Cpufree_machine.Topology.Ring;
    Some Cpufree_machine.Topology.Pcie_only;
    Some (Cpufree_machine.Topology.Dgx { nodes = 4 });
    Some (Cpufree_machine.Topology.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 });
    Some (Cpufree_machine.Topology.Dragonfly { a = 4; p = 2; h = 2; gpus_per_node = 8 });
  |]

let fault_pool =
  Array.of_list
    ((None :: List.map (fun i -> Some (Fault.preset ~intensity:i)) [ 0.5; 1.0 ])
    @ List.map
        (fun s ->
          match Fault.of_string s with
          | Ok spec -> Some spec
          | Error e -> failwith ("fault pool: " ^ e))
        [ "drop=0.3"; "delay=0.1@2000;straggler=1x1.5"; "kill=2@500;retry=50x6;backoff=2" ])

let pdes_pool = [| None; Some `Seq |]

let workload_pool =
  Array.of_list
    (List.concat_map
       (fun kind ->
         List.map
           (fun (dims, iters, no_compute) ->
             Scenario.Stencil { variant = S.Variants.name kind; dims; iters; no_compute })
           [ ("2d:64x64", 3, false); ("3d:32x32x16", 20, true) ])
       S.Variants.extended
    @ List.concat_map
        (fun app ->
          List.map
            (fun (arm, size, specialize_tb) ->
              Scenario.Dace { app; arm; size; iters = 5; specialize_tb })
            [ ("baseline", 128, false); ("cpu-free", 256, true) ])
        [ "jacobi1d"; "jacobi2d"; "heat3d" ])

let pick pool = QCheck.int_bound (Array.length pool - 1)

let arbitrary_scenario =
  QCheck.(
    map
      (fun ((w, t, f), (seed, p, gpus), (arch, trace, metrics)) ->
        Scenario.make ~arch ?topology:topology_pool.(t) ~gpus ?faults:fault_pool.(f)
          ~fault_seed:seed ?pdes:pdes_pool.(p) ~trace ~metrics workload_pool.(w))
      (triple
         (triple (pick workload_pool) (pick topology_pool) (pick fault_pool))
         (triple (int_bound 1000) (pick pdes_pool) (oneofl [ 8; 16; 32 ]))
         (triple (oneofl [ "a100"; "h100" ]) bool bool)))
