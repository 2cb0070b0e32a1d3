module Topology = Cpufree_machine.Topology
module Fault = Cpufree_fault.Fault
module Env = Cpufree_obs.Sim_env
module Arch = Cpufree_gpu.Arch

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
  trace : bool;
  metrics : bool;
}

let make ?(arch = "a100") ?(topology = Topology.Hgx) ?(gpus = 8) ?faults ?(fault_seed = 1)
    ?(trace = false) ?(metrics = false) workload =
  { workload; arch; topology; gpus; faults; fault_seed; trace; metrics }

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

(* Link and switch failures must name topology vertices, and a link
   failure two vertices with a link between them; otherwise the run raises
   when the failure is enacted, or the clause silently kills nothing (a
   linkfail of gpu0-gpu3 on hgx, whose GPUs meet only at the switch).
   Checking needs the instantiated graph, so it runs once per run
   ({!Measure.of_scenario}), not on every parse. *)
let check_fault_vertices t arch =
  match t.faults with
  | None -> Ok ()
  | Some spec when spec.Fault.link_fails = [] && spec.Fault.switch_fails = [] -> Ok ()
  | Some spec ->
    let ( let* ) = Result.bind in
    let topo = Topology.instantiate t.topology ~profile:(Arch.fabric_profile arch) ~gpus:t.gpus in
    let on = Topology.spec_to_string t.topology in
    let vertex clause name =
      match Topology.vertex_named topo name with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%s: no vertex %S on %s" clause name on)
    in
    let linked u v (l : Topology.link) =
      (l.lsrc = u && l.ldst = v) || (l.lsrc = v && l.ldst = u)
    in
    let* () =
      all
        (fun ((a, b), _) ->
          let* u = vertex "linkfail" a in
          let* v = vertex "linkfail" b in
          if List.exists (linked u v) (Topology.links topo) then Ok ()
          else Error (Printf.sprintf "linkfail: %S and %S share no link on %s" a b on))
        spec.Fault.link_fails
    in
    all (fun (nm, _) -> Result.map ignore (vertex "switchfail" nm)) spec.Fault.switch_fails

(* A workload string is the value of one token of the scenario line, and
   [of_string] cuts the line at spaces and a token at its first '='. An
   empty value, or one holding whitespace or '=', would read back as
   another scenario. *)
let check_value key value =
  if value = "" then Error (Printf.sprintf "%s must not be empty" key)
  else if String.exists (function ' ' | '\t' | '\n' | '\r' | '\011' | '\012' | '=' -> true | _ -> false) value
  then Error (Printf.sprintf "bad %s %S: it must not contain whitespace or '='" key value)
  else Ok ()

let validate t =
  let ( let* ) = Result.bind in
  let* () =
    match t.workload with
    | Stencil { variant; dims; _ } ->
      Result.bind (check_value "variant" variant) (fun () -> check_value "dims" dims)
    | Dace { app; arm; _ } -> Result.bind (check_value "app" app) (fun () -> check_value "arm" arm)
  in
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

(* The run environment of a scenario: its topology, its fault plan and
   seed, a flow-enabled trace sink exactly when a trace artifact was
   requested, and a metrics registry exactly when a metrics artifact was.
   Every scenario run, the CLI's and the daemon's, gets it through
   {!Measure.of_scenario}. *)
let env t =
  let trace = if t.trace then Some (Cpufree_engine.Trace.create ~flows:true ()) else None in
  let metrics = if t.metrics then Some (Cpufree_obs.Metrics.create ()) else None in
  Env.make ~topology:t.topology ?faults:t.faults ~fault_seed:t.fault_seed ?trace ?metrics ()

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
    (* The line keeps the token of the retired execution mode: perfbench keys
       each op by the md5 of the line, so dropping it re-keys every op. *)
    "pdes=default";
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
      if value = "default" then Ok t
      else
        Error
          (Printf.sprintf "bad pdes %S: the only value is default (there is one event driver)"
             value)
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

(* --- content identity ----------------------------------------------------- *)

(* The cache key: the canonical line. The artifact booleans are part of it
   because they change the response payload. The "scenario/v2" tag versions
   the encoding: changing the line invalidates every old digest instead of
   silently aliasing. *)
let digest t = Stdlib.Digest.to_hex (Stdlib.Digest.string ("scenario/v2|" ^ to_string t))
