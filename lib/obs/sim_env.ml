type pdes = [ `Seq ]

let pdes_modes = [ ("seq", `Seq); ("sequential", `Seq) ]

let pdes_to_string `Seq = "seq"

type t = {
  topology : Cpufree_machine.Topology.spec option;
  faults : Cpufree_fault.Fault.spec option;
  fault_seed : int;
  trace : Cpufree_engine.Trace.t option;
  metrics : Metrics.t option;
  pdes : pdes option;
}

let default =
  { topology = None; faults = None; fault_seed = 0; trace = None; metrics = None; pdes = None }

let make ?topology ?faults ?(fault_seed = 0) ?trace ?metrics ?pdes () =
  { topology; faults; fault_seed; trace; metrics; pdes }

let pdes_of_string s : (pdes, string) result =
  match String.lowercase_ascii (String.trim s) with
  | "" -> Ok `Seq
  | key -> (
    match List.assoc_opt key pdes_modes with
    | Some mode -> Ok mode
    | None ->
      Error
        (Printf.sprintf "%S: valid modes are %s (the parallel drivers were removed)" s
           (String.concat ", " (List.map (fun (k, _) -> Printf.sprintf "%S" k) pdes_modes))))

(* --- serialization ------------------------------------------------------- *)

(* Canonical textual form: six fixed [key=value] tokens in fixed order,
   space-separated. No field value contains a space (topology and fault
   specs are space-free by construction), so the encoding splits back
   unambiguously. Sinks cannot cross a process boundary, so they are
   rendered as bare on/off markers; [of_string] refuses the "on" forms. *)
let to_string env =
  String.concat " "
    [
      "topology="
      ^ (match env.topology with
        | None -> "default"
        | Some spec -> Cpufree_machine.Topology.spec_to_string spec);
      "faults="
      ^ (match env.faults with
        | None -> "none"
        | Some spec -> Cpufree_fault.Fault.to_string spec);
      Printf.sprintf "fault-seed=%d" env.fault_seed;
      "pdes=" ^ (match env.pdes with None -> "default" | Some m -> pdes_to_string m);
      "trace=" ^ (if env.trace = None then "off" else "on");
      "metrics=" ^ (if env.metrics = None then "off" else "on");
    ]

let of_string s : (t, string) result =
  let ( let* ) = Result.bind in
  let parse_field env token =
    match String.index_opt token '=' with
    | None -> Error (Printf.sprintf "bad environment token %S: expected key=value" token)
    | Some i -> (
      let key = String.sub token 0 i in
      let value = String.sub token (i + 1) (String.length token - i - 1) in
      match key with
      | "topology" ->
        if value = "default" then Ok { env with topology = None }
        else
          let* spec = Cpufree_machine.Topology.spec_of_string value in
          Ok { env with topology = Some spec }
      | "faults" ->
        if value = "none" then Ok { env with faults = None }
        else
          let* spec = Cpufree_fault.Fault.of_string value in
          Ok { env with faults = Some spec }
      | "fault-seed" -> (
        match int_of_string_opt value with
        | Some seed -> Ok { env with fault_seed = seed }
        | None -> Error (Printf.sprintf "bad fault-seed %S: expected an integer" value))
      | "pdes" ->
        if value = "default" then Ok { env with pdes = None }
        else
          let* mode = pdes_of_string value in
          Ok { env with pdes = Some mode }
      | "trace" | "metrics" ->
        if value = "off" then Ok env
        else if value = "on" then
          Error
            (Printf.sprintf "%s=on: observability sinks are not serializable — attach a \
                             fresh sink after parsing" key)
        else Error (Printf.sprintf "bad %s %S: expected on or off" key value)
      | other -> Error (Printf.sprintf "unknown environment key %S" other))
  in
  let tokens = List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim s)) in
  List.fold_left (fun acc tok -> let* env = acc in parse_field env tok) (Ok default) tokens

(* Stable content hash of a (sink-free) environment. [to_string] is
   canonical — one spelling per distinct environment — so digest equality
   implies structural equality, which is exactly what a result cache keyed
   on it needs. The "simenv/v1" tag versions the encoding: changing the
   textual form invalidates every old digest instead of silently aliasing. *)
let digest env = Stdlib.Digest.to_hex (Stdlib.Digest.string ("simenv/v1|" ^ to_string env))

let pdes_of_env_var () : pdes =
  match Stdlib.Sys.getenv_opt "CPUFREE_PDES" with
  | None -> `Seq
  | Some s -> (
    match pdes_of_string s with
    | Ok mode -> mode
    | Error msg -> invalid_arg ("CPUFREE_PDES=" ^ msg))

let resolve_pdes env = match env.pdes with Some m -> m | None -> pdes_of_env_var ()

let observed env = env.trace <> None || env.metrics <> None

let quiet env = { env with trace = None; metrics = None }

let probe env = { (quiet env) with faults = None }
