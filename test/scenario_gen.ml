(* Scenarios as generable values: every component drawn from a small pool
   by index, so shrinking stays meaningful. Every draw passes
   [Scenario.validate] by construction (the GPU counts split evenly on
   every topology and cover every GPU the fault plans name), but not every
   draw can run: [Exec.job] refuses, with [Variants.feasible]'s reason, the
   3d:32x32x16 stencil at 32 GPUs (fewer planes than PEs) and the
   persistent variants at 16 (one plane per PE). *)

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
      (fun ((w, t, f), (seed, gpus), (arch, trace, metrics)) ->
        Scenario.make ~arch ?topology:topology_pool.(t) ~gpus ?faults:fault_pool.(f)
          ~fault_seed:seed ~trace ~metrics workload_pool.(w))
      (triple
         (triple (pick workload_pool) (pick topology_pool) (pick fault_pool))
         (pair (int_bound 1000) (oneofl [ 8; 16; 32 ]))
         (triple (oneofl [ "a100"; "h100" ]) bool bool)))

(* Valid inputs of the three grammars the CLI and the daemon parse. *)
let scenario_line = QCheck.Gen.map Scenario.to_string (QCheck.gen arbitrary_scenario)

let fault_line =
  let open QCheck.Gen in
  let clause =
    oneofl
      [
        "none"; "drop=0.3"; "delay=0.1@2000"; "straggler=1x1.5"; "flap=40@0.25x2"; "nic=100+200";
        "kill=2@500"; "linkfail=gpu0-nvswitch@10"; "switchfail=nvswitch@20"; "retry=50x6";
        "backoff=2";
      ]
  in
  oneof
    [
      map
        (fun i -> Fault.to_string (Option.value fault_pool.(i) ~default:Fault.none))
        (int_bound (Array.length fault_pool - 1));
      map (fun i -> Fault.to_string (Fault.preset ~intensity:i)) (float_bound_inclusive 4.0);
      (let* sep = oneofl [ ";"; "," ] in
       map (String.concat sep) (list_size (int_range 1 4) clause));
    ]

let topology_line =
  let open QCheck.Gen in
  oneof
    [
      oneofl [ "hgx"; "ring"; "pcie"; "pcie_only"; "dgx"; "fat-tree"; "dragonfly"; "HGX" ];
      map (Printf.sprintf "dgx:%d") (int_range 1 16);
      map
        (fun (a, r, g) -> Printf.sprintf "fat-tree:%d:%d:%d" a r g)
        (triple (int_range 1 8) (int_range 1 4) (int_range 1 8));
      map
        (fun ((a, p), (h, g)) -> Printf.sprintf "dragonfly:%d:%d:%d:%d" a p h g)
        (pair (pair (int_range 1 8) (int_range 1 4)) (pair (int_range 1 4) (int_range 1 8)));
    ]

(* Damaged forms of valid input, for the parsers' totality laws: a valid
   string cut short, with one byte replaced, or with one token deleted or
   duplicated. A token is a maximal run of letters, digits and [._-], or a
   single other character, so the separators of every grammar ([' '],
   [';'], [':'], ['='], ['@'], ['x'] inside numbers aside) are tokens too.
   Replacement bytes come from the grammars' own alphabet or are arbitrary,
   and a digit run may be replaced by a number no [int] holds. *)
let tokens s =
  let word c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if word s.[i] then begin
      let j = ref i in
      while !j < n && word s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
    else go (i + 1) (String.make 1 s.[i] :: acc)
  in
  go 0 []

let alphabet = "0123456789-+.=:;,@x eE"
let huge = "99999999999999999999999"

let damage valid =
  let open QCheck.Gen in
  let* s = valid in
  let n = String.length s in
  let toks = Array.of_list (tokens s) in
  let k = Array.length toks in
  let splice f =
    let+ i = int_bound (max 0 (k - 1)) in
    String.concat "" (List.concat (List.mapi (fun j t -> if j = i then f t else [ t ]) (Array.to_list toks)))
  in
  frequency
    [
      (1, return s);
      (2, map (fun i -> String.sub s 0 i) (int_bound n));
      ( 3,
        if n = 0 then return s
        else
          let* i = int_bound (n - 1) in
          let+ c =
            oneof [ map (String.get alphabet) (int_bound (String.length alphabet - 1)); char ]
          in
          String.mapi (fun j d -> if j = i then c else d) s );
      (2, splice (fun _ -> []));
      (2, splice (fun t -> [ t; t ]));
      ( 1,
        splice (fun t ->
            [ (if String.length t > 0 && t.[0] >= '0' && t.[0] <= '9' then huge else t) ]) );
    ]

(* A law: the parser answers [Ok] or [Error] on every damaged input and
   never raises. *)
let total ~name ~count parse valid =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(Printf.sprintf "%S") (damage valid))
    (fun s ->
      match parse s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))
