module Topology = Cpufree_machine.Topology
module Fault = Cpufree_fault.Fault
module Env = Cpufree_obs.Sim_env
module Arch = Cpufree_gpu.Arch
module J = Json

type workload =
  | Stencil of { variant : string; dims : string; iters : int; no_compute : bool }
  | Dace of { app : string; arm : string; size : int; iters : int; specialize_tb : bool }

type t = {
  workload : workload;
  arch : string;
  topology : Topology.spec;
  gpus : int;
  faults : Fault.spec option;
  fault_seed : int;
  pdes : Env.pdes option;
  trace : bool;
  metrics : bool;
}

let make ?(arch = "a100") ?(topology = Topology.Hgx) ?(gpus = 8) ?faults ?(fault_seed = 1)
    ?pdes ?(trace = false) ?(metrics = false) workload =
  { workload; arch; topology; gpus; faults; fault_seed; pdes; trace; metrics }

let arch_of t =
  match Arch.of_name t.arch with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown architecture %S (expected one of: %s)" t.arch
         (String.concat ", " (List.map fst Arch.by_name)))

let rec all f = function
  | [] -> Ok ()
  | x :: rest -> Result.bind (f x) (fun () -> all f rest)

(* A kill or straggler clause must name a GPU the machine has; otherwise it
   silently does nothing (a kill of GPU 99 on 8 GPUs). *)
let check_fault_gpus t (spec : Fault.spec) =
  let check_gpu clause (g, _) =
    if g >= 0 && g < t.gpus then Ok ()
    else Error (Printf.sprintf "%s=%d: no such GPU (the machine has %d)" clause g t.gpus)
  in
  Result.bind (all (check_gpu "kill") spec.Fault.kills) (fun () ->
      all (check_gpu "straggler") spec.Fault.stragglers)

(* Link and switch failures must name topology vertices; otherwise the run
   raises when the failure is enacted. Checking needs the instantiated
   graph, so it runs once per run ({!Measure.of_scenario}), not on every
   parse. *)
let check_fault_vertices t arch =
  match t.faults with
  | None -> Ok ()
  | Some spec when spec.Fault.link_fails = [] && spec.Fault.switch_fails = [] -> Ok ()
  | Some spec ->
    let topo = Topology.instantiate t.topology ~profile:(Arch.fabric_profile arch) ~gpus:t.gpus in
    let check_vertex clause name =
      match Topology.vertex_named topo name with
      | Some _ -> Ok ()
      | None ->
        Error
          (Printf.sprintf "%s: no vertex %S on %s" clause name
             (Topology.spec_to_string t.topology))
    in
    Result.bind
      (all
         (fun ((a, b), _) ->
           Result.bind (check_vertex "linkfail" a) (fun () -> check_vertex "linkfail" b))
         spec.Fault.link_fails)
      (fun () -> all (fun (nm, _) -> check_vertex "switchfail" nm) spec.Fault.switch_fails)

let validate t =
  let ( let* ) = Result.bind in
  let* (_ : Arch.t) = arch_of t in
  let* () =
    if t.gpus > 0 then Ok () else Error (Printf.sprintf "gpus must be positive, got %d" t.gpus)
  in
  let* () =
    match Topology.validate t.topology ~gpus:t.gpus with
    | Ok () -> Ok ()
    | Error msg -> Error ("bad topology/gpus combination: " ^ msg)
  in
  let* () = match t.faults with None -> Ok () | Some spec -> check_fault_gpus t spec in
  match t.workload with
  | Stencil { iters; _ } when iters <= 0 ->
    Error (Printf.sprintf "iters must be positive, got %d" iters)
  | Dace { iters; _ } when iters <= 0 ->
    Error (Printf.sprintf "iters must be positive, got %d" iters)
  | Dace { size; _ } when size <= 0 ->
    Error (Printf.sprintf "size must be positive, got %d" size)
  | Stencil _ | Dace _ -> Ok ()

(* The run environment mirrors the CLI's env_of_common byte for byte: a
   flow-enabled trace sink exactly when a trace artifact was requested, a
   metrics registry exactly when a metrics artifact was. *)
let env t =
  let trace = if t.trace then Some (Cpufree_engine.Trace.create ~flows:true ()) else None in
  let metrics = if t.metrics then Some (Cpufree_obs.Metrics.create ()) else None in
  Env.make ~topology:t.topology ?faults:t.faults ~fault_seed:t.fault_seed ?trace ?metrics
    ?pdes:t.pdes ()

(* --- textual form --------------------------------------------------------- *)

let onoff b = if b then "on" else "off"
let bool_name b = if b then "true" else "false"

let workload_tokens = function
  | Stencil { variant; dims; iters; no_compute } ->
    [
      "variant=" ^ variant;
      "dims=" ^ dims;
      Printf.sprintf "iters=%d" iters;
      "no-compute=" ^ bool_name no_compute;
    ]
  | Dace { app; arm; size; iters; specialize_tb } ->
    [
      "app=" ^ app;
      "arm=" ^ arm;
      Printf.sprintf "size=%d" size;
      Printf.sprintf "iters=%d" iters;
      "specialize-tb=" ^ bool_name specialize_tb;
    ]

let common_tokens t =
  [
    "arch=" ^ t.arch;
    "topology=" ^ Topology.spec_to_string t.topology;
    Printf.sprintf "gpus=%d" t.gpus;
    "faults=" ^ (match t.faults with None -> "none" | Some s -> Fault.to_string s);
    Printf.sprintf "fault-seed=%d" t.fault_seed;
    "pdes=" ^ (match t.pdes with None -> "default" | Some m -> Env.pdes_to_string m);
    "trace=" ^ onoff t.trace;
    "metrics=" ^ onoff t.metrics;
  ]

let kind_name = function Stencil _ -> "stencil" | Dace _ -> "dace"

let to_string t =
  String.concat " " ((kind_name t.workload :: workload_tokens t.workload) @ common_tokens t)

let parse_bool key value =
  match value with
  | "true" -> Ok true
  | "false" -> Ok false
  | _ -> Error (Printf.sprintf "bad %s %S: expected true or false" key value)

let parse_int key value =
  match int_of_string_opt value with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s %S: expected an integer" key value)

let of_string s : (t, string) result =
  let ( let* ) = Result.bind in
  let* kind, tokens =
    match
      List.filter (fun tok -> tok <> "") (String.split_on_char ' ' (String.trim s))
    with
    | "stencil" :: rest -> Ok (`Stencil, rest)
    | "dace" :: rest -> Ok (`Dace, rest)
    | other :: _ ->
      Error (Printf.sprintf "bad scenario %S: expected it to start with stencil or dace" other)
    | [] -> Error "empty scenario spec"
  in
  let default_workload =
    match kind with
    | `Stencil ->
      Stencil { variant = "cpu-free"; dims = "2d:2048x2048"; iters = 100; no_compute = false }
    | `Dace ->
      Dace { app = "jacobi2d"; arm = "cpu-free"; size = 4096; iters = 100; specialize_tb = false }
  in
  let parse_bool_onoff key value =
    match value with
    | "on" -> Ok true
    | "off" -> Ok false
    | _ -> Error (Printf.sprintf "bad %s %S: expected on or off" key value)
  in
  let parse_field t token =
    let* key, value =
      match String.index_opt token '=' with
      | Some i ->
        Ok
          ( String.sub token 0 i,
            String.sub token (i + 1) (String.length token - i - 1) )
      | None -> Error (Printf.sprintf "bad scenario token %S: expected key=value" token)
    in
    match (key, t.workload) with
    | "variant", Stencil w -> Ok { t with workload = Stencil { w with variant = value } }
    | "dims", Stencil w -> Ok { t with workload = Stencil { w with dims = value } }
    | "iters", Stencil w ->
      let* iters = parse_int key value in
      Ok { t with workload = Stencil { w with iters } }
    | "no-compute", Stencil w ->
      let* no_compute = parse_bool key value in
      Ok { t with workload = Stencil { w with no_compute } }
    | "app", Dace w -> Ok { t with workload = Dace { w with app = value } }
    | "arm", Dace w -> Ok { t with workload = Dace { w with arm = value } }
    | "size", Dace w ->
      let* size = parse_int key value in
      Ok { t with workload = Dace { w with size } }
    | "iters", Dace w ->
      let* iters = parse_int key value in
      Ok { t with workload = Dace { w with iters } }
    | "specialize-tb", Dace w ->
      let* specialize_tb = parse_bool key value in
      Ok { t with workload = Dace { w with specialize_tb } }
    | "arch", _ -> Ok { t with arch = value }
    | "topology", _ ->
      let* spec = Topology.spec_of_string value in
      Ok { t with topology = spec }
    | "gpus", _ ->
      let* gpus = parse_int key value in
      Ok { t with gpus }
    | "faults", _ ->
      if value = "none" then Ok { t with faults = None }
      else
        let* spec = Fault.of_string value in
        Ok { t with faults = Some spec }
    | "fault-seed", _ ->
      let* fault_seed = parse_int key value in
      Ok { t with fault_seed }
    | "pdes", _ ->
      if value = "default" then Ok { t with pdes = None }
      else
        let* mode = Env.pdes_of_string value in
        Ok { t with pdes = Some mode }
    | "trace", _ ->
      let* trace = parse_bool_onoff key value in
      Ok { t with trace }
    | "metrics", _ ->
      let* metrics = parse_bool_onoff key value in
      Ok { t with metrics }
    | other, _ ->
      Error
        (Printf.sprintf "unknown scenario key %S for a %s workload" other
           (kind_name t.workload))
  in
  let* t =
    List.fold_left
      (fun acc tok -> let* t = acc in parse_field t tok)
      (Ok (make default_workload))
      tokens
  in
  let* () = validate t in
  Ok t

(* --- JSON wire format ----------------------------------------------------- *)

let workload_to_json = function
  | Stencil { variant; dims; iters; no_compute } ->
    J.Obj
      [
        ("kind", J.String "stencil");
        ("variant", J.String variant);
        ("dims", J.String dims);
        ("iters", J.Int iters);
        ("no_compute", J.Bool no_compute);
      ]
  | Dace { app; arm; size; iters; specialize_tb } ->
    J.Obj
      [
        ("kind", J.String "dace");
        ("app", J.String app);
        ("arm", J.String arm);
        ("size", J.Int size);
        ("iters", J.Int iters);
        ("specialize_tb", J.Bool specialize_tb);
      ]

let to_json t =
  J.Obj
    [
      ("workload", workload_to_json t.workload);
      ("arch", J.String t.arch);
      ("topology", J.String (Topology.spec_to_string t.topology));
      ("gpus", J.Int t.gpus);
      ( "faults",
        match t.faults with None -> J.Null | Some s -> J.String (Fault.to_string s) );
      ("fault_seed", J.Int t.fault_seed);
      ("pdes", match t.pdes with None -> J.Null | Some m -> J.String (Env.pdes_to_string m));
      ("trace", J.Bool t.trace);
      ("metrics", J.Bool t.metrics);
    ]

let of_json json : (t, string) result =
  let ( let* ) = Result.bind in
  let str ctx name obj =
    match J.member name obj with
    | Some (J.String s) -> Ok s
    | Some _ -> Error (Printf.sprintf "%s: field %S must be a string" ctx name)
    | None -> Error (Printf.sprintf "%s: missing field %S" ctx name)
  in
  let int ctx name obj =
    match J.member name obj with
    | Some (J.Int n) -> Ok n
    | Some _ -> Error (Printf.sprintf "%s: field %S must be an integer" ctx name)
    | None -> Error (Printf.sprintf "%s: missing field %S" ctx name)
  in
  let boolean ctx name obj =
    match J.member name obj with
    | Some (J.Bool b) -> Ok b
    | Some _ -> Error (Printf.sprintf "%s: field %S must be a boolean" ctx name)
    | None -> Error (Printf.sprintf "%s: missing field %S" ctx name)
  in
  let opt_str ctx name obj =
    match J.member name obj with
    | Some (J.String s) -> Ok (Some s)
    | Some J.Null | None -> Ok None
    | Some _ -> Error (Printf.sprintf "%s: field %S must be a string or null" ctx name)
  in
  match json with
  | J.Obj _ ->
    let* workload =
      match J.member "workload" json with
      | Some (J.Obj _ as w) -> (
        let* kind = str "workload" "kind" w in
        match kind with
        | "stencil" ->
          let* variant = str "workload" "variant" w in
          let* dims = str "workload" "dims" w in
          let* iters = int "workload" "iters" w in
          let* no_compute = boolean "workload" "no_compute" w in
          Ok (Stencil { variant; dims; iters; no_compute })
        | "dace" ->
          let* app = str "workload" "app" w in
          let* arm = str "workload" "arm" w in
          let* size = int "workload" "size" w in
          let* iters = int "workload" "iters" w in
          let* specialize_tb = boolean "workload" "specialize_tb" w in
          Ok (Dace { app; arm; size; iters; specialize_tb })
        | other -> Error (Printf.sprintf "workload: unknown kind %S" other))
      | Some _ -> Error "scenario: field \"workload\" must be an object"
      | None -> Error "scenario: missing field \"workload\""
    in
    let* arch = str "scenario" "arch" json in
    let* topology =
      let* s = str "scenario" "topology" json in
      Topology.spec_of_string s
    in
    let* gpus = int "scenario" "gpus" json in
    let* faults =
      let* s = opt_str "scenario" "faults" json in
      match s with
      | None -> Ok None
      | Some s ->
        let* spec = Fault.of_string s in
        Ok (Some spec)
    in
    let* fault_seed = int "scenario" "fault_seed" json in
    let* pdes =
      let* s = opt_str "scenario" "pdes" json in
      match s with
      | None -> Ok None
      | Some s ->
        let* mode = Env.pdes_of_string s in
        Ok (Some mode)
    in
    let* trace = boolean "scenario" "trace" json in
    let* metrics = boolean "scenario" "metrics" json in
    let t = { workload; arch; topology; gpus; faults; fault_seed; pdes; trace; metrics } in
    let* () = validate t in
    Ok t
  | _ -> Error "scenario: not a JSON object"

let of_json_string s =
  match J.of_string s with Error e -> Error ("scenario: " ^ e) | Ok json -> of_json json

(* --- content identity ----------------------------------------------------- *)

(* The cache key's preimage. The execution mode is normalized away (an
   explicit and an absent mode run the same driver, so requests differing
   only in [pdes] must share a cache entry); the artifact booleans stay because they change the
   response payload. The environment contributes through Sim_env.digest of
   the sink-free, mode-free environment — the "(scenario, env)" identity. *)
let canonical_string t =
  let hash_env =
    Env.make ~topology:t.topology ?faults:t.faults ~fault_seed:t.fault_seed ()
  in
  String.concat "|"
    [
      "scenario/v1";
      kind_name t.workload;
      String.concat " " (workload_tokens t.workload);
      "arch=" ^ t.arch;
      Printf.sprintf "gpus=%d" t.gpus;
      "trace=" ^ onoff t.trace;
      "metrics=" ^ onoff t.metrics;
      "env:" ^ Env.digest hash_env;
    ]

let digest t = Stdlib.Digest.to_hex (Stdlib.Digest.string (canonical_string t))
