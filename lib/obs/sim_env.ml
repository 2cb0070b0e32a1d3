type t = {
  topology : Cpufree_machine.Topology.spec option;
  faults : Cpufree_fault.Fault.spec option;
  fault_seed : int;
  trace : Cpufree_engine.Trace.t option;
  metrics : Metrics.t option;
}

let default = { topology = None; faults = None; fault_seed = 0; trace = None; metrics = None }

let make ?topology ?faults ?(fault_seed = 0) ?trace ?metrics () =
  { topology; faults; fault_seed; trace; metrics }

let quiet env = { env with trace = None; metrics = None }

let probe env = { (quiet env) with faults = None }
