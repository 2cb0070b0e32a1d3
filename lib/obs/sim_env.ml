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

let pdes_of_env_var () : pdes =
  match Stdlib.Sys.getenv_opt "CPUFREE_PDES" with
  | None -> `Seq
  | Some s -> (
    match pdes_of_string s with
    | Ok mode -> mode
    | Error msg -> invalid_arg ("CPUFREE_PDES=" ^ msg))

let resolve_pdes env = match env.pdes with Some m -> m | None -> pdes_of_env_var ()

let quiet env = { env with trace = None; metrics = None }

let probe env = { (quiet env) with faults = None }
