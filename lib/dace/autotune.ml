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

let build ?backed plan sdfg =
  let sdfg = transform plan (prepare plan sdfg) in
  match plan.offload with
  | Offload_host | Offload_discrete _ -> Exec.build_baseline ?backed sdfg
  | Offload_persistent { relax; specialize_tb } -> (
    match Persistent_fusion.apply ~relax sdfg with
    | Ok p ->
      let p = if specialize_tb then fst (Persistent_fusion.specialize_tb p) else p in
      Exec.build_persistent ?backed p
    | Error e -> invalid_arg ("GPUPersistentKernel fusion failed: " ^ e))

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
}

(* Pick the winner by simulating every candidate on phantom buffers under
   the probe environment (sinks and faults stripped). The simulation is
   deterministic and the candidate order is fixed, so for a given program,
   gpus count and architecture the chosen plan is always the same across
   repeated runs. Ties keep the earliest (simplest / hand-built) candidate:
   the fold only replaces the incumbent on a strictly smaller cost. *)
let search ?arch ?(env = Obs.Sim_env.default) sdfg ~gpus ~iterations =
  match candidates sdfg ~gpus with
  | Error e -> Error e
  | Ok plans ->
    let evaluated =
      List.filter_map
        (fun plan ->
          match build plan sdfg with
          | exception Invalid_argument reason ->
            ignore reason;
            None
          | exception Exec.Lowering_error reason ->
            ignore reason;
            None
          | built ->
            let cost =
              Measure.probe_env ?arch ~env
                ~label:(plan_to_string plan)
                ~gpus:plan.gpus_used ~iterations built.Exec.program
            in
            Some (plan, cost))
        plans
    in
    (match evaluated with
    | [] -> Error "no candidate transformation sequence compiled"
    | first :: rest ->
      let best, predicted =
        List.fold_left
          (fun (bp, bc) (p, c) -> if Time.(c < bc) then (p, c) else (bp, bc))
          first rest
      in
      Ok { best; predicted; evaluated })
