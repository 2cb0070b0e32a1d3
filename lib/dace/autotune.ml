module Time = Cpufree_engine.Time
module Measure = Cpufree_core.Measure
module Obs = Cpufree_obs

type offload =
  | Offload_host
  | Offload_discrete of { fusion : bool }
  | Offload_persistent of { relax : bool; specialize_tb : bool }

type plan = { shard : bool; gpus_used : int; offload : offload }

let offload_to_string = function
  | Offload_host -> "host"
  | Offload_discrete { fusion } -> if fusion then "gpu+fusion" else "gpu"
  | Offload_persistent { relax; specialize_tb } ->
    Printf.sprintf "persistent%s%s"
      (if relax then "+relax" else "")
      (if specialize_tb then "+specialize-tb" else "")

let plan_to_string p =
  Printf.sprintf "%s%s x%d"
    (if p.shard then "shard+" else "")
    (offload_to_string p.offload) p.gpus_used

(* Apply the plan's partitioning decision: a sharding plan rewrites the
   global program into SPMD form first. *)
let prepare plan sdfg =
  if not plan.shard then sdfg
  else
    match Placement.shard_1d sdfg ~gpus:plan.gpus_used with
    | Ok sh -> sh.Placement.sh_sdfg
    | Error e -> invalid_arg ("Autotune: shard candidate is not shardable: " ^ e)

(* The transformation sequence each offload decision stands for, ending at
   the SDFG the backend lowers. These are exactly the hand-built pipelines
   of {!Pipeline.compile_sdfg}, now selected by plan instead of by arm. *)
let transform plan sdfg =
  match plan.offload with
  | Offload_host ->
    Validate.check_exn sdfg;
    sdfg
  | Offload_discrete { fusion } ->
    let sdfg = Transforms.gpu_transform sdfg in
    let sdfg = if fusion then fst (Transforms.map_fusion sdfg) else sdfg in
    Validate.check_exn sdfg;
    sdfg
  | Offload_persistent _ ->
    let sdfg = Transforms.gpu_transform sdfg in
    let sdfg = Transforms.nvshmem_array sdfg in
    let sdfg = Transforms.expand_nvshmem sdfg in
    (match Transforms.replace_mpi_with_nvshmem_check sdfg with
    | Ok () -> ()
    | Error e -> invalid_arg e);
    Validate.check_exn ~require_symmetric:true sdfg;
    sdfg

type form = Baseline_form of Sdfg.t | Persistent_form of Persistent_fusion.t

let form plan sdfg =
  let sdfg = transform plan (prepare plan sdfg) in
  match plan.offload with
  | Offload_host | Offload_discrete _ -> Baseline_form sdfg
  | Offload_persistent { relax; specialize_tb } -> (
    match Persistent_fusion.apply ~relax sdfg with
    | Ok p ->
      Persistent_form (if specialize_tb then fst (Persistent_fusion.specialize_tb p) else p)
    | Error e -> invalid_arg ("GPUPersistentKernel fusion failed: " ^ e))

let lower ?backed = function
  | Baseline_form sdfg -> Exec.build_baseline ?backed sdfg
  | Persistent_form p -> Exec.build_persistent ?backed p

let build ?backed plan sdfg = lower ?backed (form plan sdfg)

let persistent_plans ~shard ~gpus =
  List.map
    (fun (relax, specialize_tb) ->
      { shard; gpus_used = gpus; offload = Offload_persistent { relax; specialize_tb } })
    (* Hand-built default first: ties resolve to the paper's conservative
       schedule. *)
    [ (true, false); (true, true); (false, false); (false, true) ]

(* Candidate transformation sequences applicable to this program, in the
   canonical (tie-breaking) order. The communication form decides the space:
   device-initiated programs can only run persistent (NVSHMEM nodes have no
   host backend), MPI programs choose offload on/off and fusion, and
   communication-free global programs additionally choose whether to shard
   across the machine or stay on one device. *)
let candidates sdfg ~gpus =
  match Analysis.comm_form sdfg with
  | Analysis.Comm_nvshmem -> Ok (persistent_plans ~shard:false ~gpus)
  | Analysis.Comm_mpi ->
    Ok
      [
        { shard = false; gpus_used = gpus; offload = Offload_discrete { fusion = true } };
        { shard = false; gpus_used = gpus; offload = Offload_discrete { fusion = false } };
        { shard = false; gpus_used = gpus; offload = Offload_host };
      ]
  | Analysis.Comm_none ->
    let single =
      [
        { shard = false; gpus_used = 1; offload = Offload_discrete { fusion = true } };
        { shard = false; gpus_used = 1; offload = Offload_discrete { fusion = false } };
        { shard = false; gpus_used = 1; offload = Offload_host };
      ]
    in
    let sharded =
      if gpus > 1 then
        match Placement.shard_1d sdfg ~gpus with
        | Ok _ -> persistent_plans ~shard:true ~gpus
        | Error _ -> []
      else []
    in
    Ok (sharded @ single)
  | Analysis.Comm_mixed ->
    Error "program mixes MPI and NVSHMEM communication; no single pipeline applies"

type decision = {
  best : plan;
  predicted : Time.t;
  evaluated : (plan * Time.t) list;  (** every candidate, in canonical order *)
  simulated : int;
  probed : Measure.result;
}

(* Pick the winner by simulating every candidate on phantom buffers under
   the probe environment (sinks and faults stripped). The simulation is
   deterministic and the candidate order is fixed, so for a given program,
   gpus count and architecture the chosen plan is always the same across
   repeated runs. Ties keep the earliest (simplest / hand-built) candidate:
   the fold only replaces the incumbent on a strictly smaller cost.

   Two plans often lower to the same program (relaxation changes nothing
   once specialization has fused every exchange/stencil pair, and
   specialization changes nothing when it fuses no pair), so each distinct
   (GPU count, form) pair is lowered and probed once; a later candidate
   with a structurally equal form takes the earlier one's cost. *)
let search ?arch ?(env = Obs.Sim_env.default) sdfg ~gpus ~iterations =
  match candidates sdfg ~gpus with
  | Error e -> Error e
  | Ok plans ->
    let probed = ref [] in
    let cost plan =
      match form plan sdfg with
      | exception (Invalid_argument _ | Exec.Lowering_error _) -> None
      | f -> (
        let key = (plan.gpus_used, f) in
        match List.assoc_opt key !probed with
        | Some c -> Some c
        | None -> (
          match lower f with
          | exception (Invalid_argument _ | Exec.Lowering_error _) -> None
          | built ->
            let r =
              Measure.probe_env ?arch ~env
                ~label:(plan_to_string plan)
                ~gpus:plan.gpus_used ~iterations built.Exec.program
            in
            probed := (key, r) :: !probed;
            Some r))
    in
    let results = List.filter_map (fun plan -> Option.map (fun r -> (plan, r)) (cost plan)) plans in
    (match results with
    | [] -> Error "no candidate transformation sequence compiled"
    | first :: rest ->
      let best, winner =
        List.fold_left
          (fun (bp, br) (p, r) ->
            if Time.(r.Measure.total < br.Measure.total) then (p, r) else (bp, br))
          first rest
      in
      Ok
        {
          best;
          predicted = winner.Measure.total;
          evaluated = List.map (fun (p, r) -> (p, r.Measure.total)) results;
          simulated = List.length !probed;
          probed = winner;
        })
