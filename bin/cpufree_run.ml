(* Command-line driver for the CPU-Free simulator.

   cpufree_run stencil  --variant cpu-free --dims 2d:2048x2048 --gpus 8 ...
   cpufree_run dace     --app jacobi2d --arm cpu-free --gpus 8 ...
   cpufree_run machine  (print the simulated architecture)
   cpufree_run serve    --socket /tmp/cpufree.sock   (scenario daemon)
   cpufree_run client   --socket ... --scenario "stencil variant=cpu-free ..."

   Every subcommand parses the same machine/fault/observability options
   (--arch, --topology, --gpus, --faults, --fault-seed, --trace-out,
   --metrics-out) through one shared spec table. The measured-run commands
   assemble their flags into a first-class [Cpufree_core.Scenario.t] and
   execute through the same [of_scenario] constructors the serving daemon
   uses, so CLI and daemon cannot drift apart. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module S = Cpufree_stencil
module D = Cpufree_dace
module Measure = Cpufree_core.Measure
module Env = Cpufree_obs.Sim_env
module Scenario = Cpufree_core.Scenario
module Serve = Cpufree_serve
module Fault = Cpufree_fault.Fault
module Time = E.Time
open Cmdliner

(* --- shared machine/fault/observability options --------------------------- *)

(* Every subcommand sees the same option set, resolved and validated in one
   place so a bad combination (e.g. "--topology dgx:3 --gpus 8") exits with
   the same usage message everywhere. [arch_name] keeps the user's spelling
   for the scenario record, which carries names, not resolved values. *)
type common = {
  arch : G.Arch.t;
  arch_name : string;
  topology : Cpufree_machine.Topology.spec;
  gpus : int;
  faults : Fault.spec option;
  fault_seed : int;
  trace_out : string option;
  metrics_out : string option;
}

let gpus_arg =
  let doc = "Number of simulated GPUs." in
  Arg.(value & opt int 8 & info [ "gpus"; "g" ] ~docv:"N" ~doc)

let arch_arg =
  let doc = "Simulated device architecture (a100 or h100)." in
  Arg.(value & opt string "a100" & info [ "arch" ] ~docv:"ARCH" ~doc)

let topology_arg =
  let doc =
    "Machine topology: hgx (single-node NVSwitch all-to-all, the default), ring, pcie, \
     dgx[:NODES] (multi-node cluster joined by InfiniBand; GPUs split evenly across nodes), \
     fat-tree[:ARITY[:RAILS[:GPN]]] (k-ary leaf/spine Clos, RAILS parallel NIC planes, GPN \
     GPUs per node; defaults 4:1:8) or dragonfly[:A:P:H[:GPN]] (groups of A routers with P \
     nodes each and H global links per router; defaults 4:2:2:8). The cluster shapes route \
     structurally on demand, so --gpus can go to 1024 and beyond."
  in
  Arg.(value & opt string "hgx" & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

let faults_arg =
  let doc =
    "Deterministic fault-injection spec: comma-separated clauses drop=P, delay=P@NS, \
     straggler=GxM, flap=PERIOD_US@DUTYxM, nic=START_US+DUR_US, kill=GPU@T_US, \
     linkfail=SRC-DST@T_US, switchfail=NAME@T_US, retry=TIMEOUT_USxN, backoff=F (or 'none'). \
     The fail-stop clauses (kill/linkfail/switchfail) permanently stop a GPU / kill every \
     link between two named topology vertices / kill a named switch and its links at the \
     given virtual time. Example: drop=0.02,delay=0.1@2000,kill=1@500."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Fault-plan seed: a fixed seed makes repeated chaos runs bit-identical." in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc =
    "Write the run as Chrome/Perfetto trace-event JSON to $(docv): spans per lane, \
     put-to-delivery flow arrows, fault/stall instants, counter tracks. Load in \
     ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Write the run's metrics registry as schema-validated JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let resolve_arch name =
  match G.Arch.of_name name with
  | Some a -> a
  | None ->
    Printf.eprintf "unknown architecture %S (expected one of: %s)\n" name
      (String.concat ", " (List.map fst G.Arch.by_name));
    exit 2

(* Parse AND validate against the GPU count so a bad combination exits with a
   usage message instead of an uncaught exception mid-run. *)
let resolve_topology name ~gpus =
  match Cpufree_machine.Topology.spec_of_string name with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2
  | Ok spec -> (
    match Cpufree_machine.Topology.validate spec ~gpus with
    | Ok () -> spec
    | Error msg ->
      Printf.eprintf "bad --topology/--gpus combination: %s\n" msg;
      exit 2)

let resolve_faults spec =
  match Fault.of_string spec with
  | Ok s -> s
  | Error msg ->
    Printf.eprintf "bad --faults spec: %s\n" msg;
    exit 2

let common_term =
  let make arch_name topo_name gpus faults fault_seed trace_out metrics_out =
    {
      arch = resolve_arch arch_name;
      arch_name;
      topology = resolve_topology topo_name ~gpus;
      gpus;
      faults = Option.map resolve_faults faults;
      fault_seed;
      trace_out;
      metrics_out;
    }
  in
  Term.(
    const make $ arch_arg $ topology_arg $ gpus_arg $ faults_arg $ fault_seed_arg
    $ trace_out_arg $ metrics_out_arg)

(* Write whatever sinks the environment carries, rendered and validated as
   the daemon ships them. *)
let write_observability c (env : Env.t) =
  let write doc path ~note =
    match (doc, path) with
    | Some s, Some file ->
      let oc = open_out file in
      output_string oc s;
      close_out oc;
      Printf.printf "wrote %s%s\n" file note
    | _ -> ()
  in
  match Serve.Exec.artifacts env with
  | Error msg ->
    Printf.eprintf "internal error: %s\n" msg;
    exit 1
  | Ok (trace, metrics) ->
    write trace c.trace_out ~note:" (load in ui.perfetto.dev)";
    write metrics c.metrics_out ~note:""

let print_chaos_report (c : Measure.chaos) =
  let r = c.Measure.base and progress = c.Measure.progress in
  Printf.printf "%-22s %s after %s  (dropped=%d delayed=%d resent=%d retries=%d)\n"
    r.Measure.label
    (if c.Measure.completed then "completed" else "ABORTED")
    (Time.to_string r.Measure.total) c.Measure.dropped c.Measure.delayed c.Measure.resent
    c.Measure.retried;
  if Array.length progress > 0 then
    Printf.printf "  progress: [%s] / %d iterations\n"
      (String.concat "; " (Array.to_list (Array.map string_of_int progress)))
      r.Measure.iterations;
  List.iter (fun line -> Printf.printf "  %s\n" line) c.Measure.failure

let iters_arg =
  let doc = "Jacobi iterations / time steps." in
  Arg.(value & opt int 100 & info [ "iters"; "i" ] ~docv:"T" ~doc)

let timeline_arg =
  let doc = "Render an ASCII execution timeline after the run." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let verify_arg =
  let doc = "Run with real data and check against the sequential reference." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let dims_conv =
  let printer fmt d = Format.pp_print_string fmt (S.Problem.dims_to_string d) in
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (S.Problem.dims_of_string s)),
      printer )

let dims_arg =
  let doc = "Global domain: 2d:NXxNY or 3d:NXxNYxNZ." in
  Arg.(value & opt dims_conv (S.Problem.D2 { nx = 2048; ny = 2048 })
       & info [ "dims"; "d" ] ~docv:"DIMS" ~doc)

let print_timeline trace =
  print_string (E.Trace.render_ascii ~width:100 trace)

(* Exit 2 with the reason when a scenario cannot run. *)
let or_reject = function
  | Ok x -> x
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 2

(* A measured run's scenario: the flag table as a [Scenario.t]. Artifact
   sinks are requested only when [artifacts] (a shared sink across a
   comparison sweep would interleave runs). *)
let scenario common ~artifacts workload =
  Scenario.make ~arch:common.arch_name ~topology:common.topology ~gpus:common.gpus
    ?faults:common.faults ~fault_seed:common.fault_seed
    ~trace:(artifacts && common.trace_out <> None)
    ~metrics:(artifacts && common.metrics_out <> None)
    workload

(* The one job printer. Each job runs through [Measure.run], which picks the
   chaos path from the fault plan; the engine trace is recorded only when a
   timeline will read it (the result is the same either way). Per job:
   timeline, chaos report, artifacts, then the job's own follow-up
   (verification). [report] prints the results of the runs that have no
   chaos report at the end. *)
let run_jobs common ~timeline ~report jobs =
  Option.iter
    (fun spec ->
      Printf.printf "chaos run: faults=%s seed=%d\n" (Fault.to_string spec) common.fault_seed)
    common.faults;
  let outcomes =
    List.map
      (fun (job, after) ->
        let o = Measure.run ~traced:timeline job in
        if timeline then Option.iter print_timeline o.Measure.trace;
        Option.iter print_chaos_report o.Measure.chaos;
        write_observability common job.Measure.sc_env;
        after ();
        o)
      jobs
  in
  (match List.filter (fun o -> Option.is_none o.Measure.chaos) outcomes with
  | [] -> ()
  | plain -> report (List.map (fun o -> o.Measure.result) plain));
  0

(* --- stencil command ------------------------------------------------------ *)

let variant_arg =
  let doc = "Execution scheme; 'all' compares every scheme." in
  Arg.(value & opt (some string) None & info [ "variant"; "v" ] ~docv:"VARIANT" ~doc)

let no_compute_arg =
  let doc = "Disable computation: measure the pure communication/sync floor." in
  Arg.(value & flag & info [ "no-compute" ] ~doc)

(* One job per selected execution scheme: the flag table becomes a
   [Scenario.t] and runs through [Serve.Exec.job] — the daemon's path.
   Every selected scheme is interpreted (and so validated) before anything
   runs or prints. *)
let run_stencil common iters dims variant no_compute verify timeline =
  let kinds =
    match variant with
    | None | Some "all" -> S.Variants.all
    | Some name -> (
      match S.Variants.of_name name with
      | Some k -> [ k ]
      | None ->
        Printf.eprintf "unknown variant %S; use one of: %s, all\n" name
          (String.concat ", " (List.map S.Variants.name S.Variants.extended));
        exit 2)
  in
  let single = List.length kinds = 1 in
  let interpret kind =
    let job =
      or_reject
        (Serve.Exec.job
           (scenario common ~artifacts:single
              (Scenario.Stencil
                 {
                   variant = S.Variants.name kind;
                   dims = S.Problem.dims_to_spec_string dims;
                   iters;
                   no_compute;
                 })))
    in
    (* Verification is an auxiliary fault-free run with real buffers. *)
    let check () =
      let backed = S.Problem.make ~compute:(not no_compute) ~backed:true dims ~iterations:iters in
      match
        S.Harness.verify_env ~arch:job.Measure.sc_arch
          ~env:(Env.probe job.Measure.sc_env) kind backed ~gpus:common.gpus
      with
      | Ok err ->
        Printf.printf "%-22s verification OK (max |err| = %.2e)\n" (S.Variants.name kind) err
      | Error m -> Printf.printf "%-22s verification FAILED: %s\n" (S.Variants.name kind) m
    in
    (job, if verify then check else ignore)
  in
  run_jobs common ~timeline:(timeline && single)
    ~report:(fun results ->
      Format.printf "%a"
        (fun fmt ->
          Measure.pp_table fmt
            ~header:(Printf.sprintf "%s on %d GPUs" (S.Problem.dims_to_string dims) common.gpus))
        results)
    (List.map interpret kinds)

let stencil_cmd =
  let doc = "Run the hand-written multi-GPU Jacobi stencil variants (paper §6.1)." in
  Cmd.v
    (Cmd.info "stencil" ~doc)
    Term.(
      const run_stencil $ common_term $ iters_arg $ dims_arg $ variant_arg $ no_compute_arg
      $ verify_arg $ timeline_arg)

(* --- dace command ---------------------------------------------------------- *)

let app_arg =
  let doc =
    "Benchmark program: jacobi1d, jacobi2d or heat3d — or, with --auto, smoother (a global \
     single-address-space program only the generic pass can distribute)."
  in
  Arg.(value & opt string "jacobi2d" & info [ "app"; "a" ] ~docv:"APP" ~doc)

let arm_arg =
  let doc = "Pipeline arm: baseline (MPI, CPU-controlled) or cpu-free." in
  Arg.(value & opt string "cpu-free" & info [ "arm" ] ~docv:"ARM" ~doc)

let size_arg =
  let doc = "Problem size: total elements (1D) or square edge (2D)." in
  Arg.(value & opt int 4096 & info [ "size"; "n" ] ~docv:"N" ~doc)

let emit_arg =
  let doc = "Print the CUDA-like code the chosen pipeline generates." in
  Arg.(value & flag & info [ "emit-code" ] ~doc)

let auto_arg =
  let doc =
    "Ignore the hand-built pipeline: analyze the program, enumerate candidate transformation \
     sequences (offload on/off, fusion, sharding, persistent-kernel variants), pick the \
     cheapest by simulating each candidate, report the chosen plan against the hand-built \
     cost, then execute the winner."
  in
  Arg.(value & flag & info [ "auto" ] ~doc)

let specialize_arg =
  let doc =
    "Apply thread-block specialization to the persistent kernel (communication on a dedicated \
     TB group, overlapping the interior computation)."
  in
  Arg.(value & flag & info [ "specialize-tb" ] ~doc)

(* dace --auto: the generic pass end to end. The scenario is validated and
   its architecture and environment resolved like any other; the search
   runs under a quiet probe of that environment, every candidate and the
   margin over the hand-built pipeline are reported, and the winner runs as
   a job under the full environment. *)
let run_dace_auto common sc ~app_name ~arm ~size ~iters ~specialize_tb =
  let gpus = common.gpus in
  let app =
    match app_name with
    | "smoother" -> None
    | _ -> Some (or_reject (D.Pipeline.app_of_name app_name ~size ~iters))
  in
  let arch, env = or_reject (Measure.of_scenario sc) in
  let sdfg, hand, name =
    match app with
    | None ->
      (D.Programs.smoother_global { D.Programs.sm_n = size; sm_steps = iters }, None, "smoother")
    | Some app -> (
      match D.Pipeline.frontend app arm ~gpus with
      | exception Invalid_argument msg -> or_reject (Error msg)
      | sdfg ->
        (sdfg, Some (D.Pipeline.hand_plan ~specialize_tb arm ~gpus), D.Pipeline.app_name app))
  in
  let a = D.Analysis.analyze sdfg in
  Printf.printf "%s: %d maps, comm=%s, %s\n" name (List.length a.D.Analysis.maps)
    (D.Analysis.comm_form_to_string a.D.Analysis.comm)
    (if a.D.Analysis.distributed then "distributed" else "global");
  match D.Autotune.search ~arch ~env sdfg ~gpus ~iterations:iters with
  | Error e ->
    Printf.eprintf "autotune failed: %s\n" e;
    exit 1
  | Ok d ->
    List.iter
      (fun (p, t) ->
        Printf.printf "  %c %-42s %s\n"
          (if p = d.D.Autotune.best then '*' else ' ')
          (D.Autotune.plan_to_string p) (Time.to_string t))
      d.D.Autotune.evaluated;
    Printf.printf "chosen plan: %s (predicted %s)\n"
      (D.Autotune.plan_to_string d.D.Autotune.best)
      (Time.to_string d.D.Autotune.predicted);
    Option.iter
      (fun plan ->
        let hand_cost =
          Measure.probe_env ~arch ~env ~label:"hand" ~gpus ~iterations:iters
            (D.Autotune.build plan sdfg).D.Exec.program
        in
        Printf.printf "hand-built %s: %s — searched plan %s\n"
          (D.Autotune.plan_to_string plan) (Time.to_string hand_cost)
          (if Time.(d.D.Autotune.predicted < hand_cost) then "beats it" else "matches it"))
      hand;
    Measure.job ~arch ~env ~label:(name ^ "/auto") ~gpus:d.D.Autotune.best.D.Autotune.gpus_used
      ~iterations:iters (D.Autotune.build d.D.Autotune.best sdfg).D.Exec.program

let run_dace common iters app_name arm_name size emit auto specialize_tb verify timeline =
  let gpus = common.gpus in
  let arm = or_reject (D.Pipeline.arm_of_name arm_name) in
  let sc =
    scenario common ~artifacts:true
      (Scenario.Dace { app = app_name; arm = arm_name; size; iters; specialize_tb })
  in
  let job =
    if auto then begin
      if emit || verify then
        Printf.eprintf "note: --emit-code/--verify are ignored with --auto\n";
      run_dace_auto common sc ~app_name ~arm ~size ~iters ~specialize_tb
    end
    else begin
      (* The measured run goes through the daemon's dispatcher. *)
      let job = or_reject (Serve.Exec.job sc) in
      let app = or_reject (D.Pipeline.app_of_name app_name ~size ~iters) in
      if emit then begin
        let sdfg = D.Pipeline.compile_sdfg app arm ~gpus in
        match arm with
        | D.Pipeline.Baseline_mpi -> print_string (D.Codegen.emit_baseline sdfg)
        | D.Pipeline.Cpu_free -> (
          match D.Persistent_fusion.apply sdfg with
          | Ok p ->
            let p = if specialize_tb then fst (D.Persistent_fusion.specialize_tb p) else p in
            print_string (D.Codegen.emit_persistent p)
          | Error e ->
            Printf.eprintf "persistent fusion failed: %s\n" e;
            exit 1)
      end;
      if verify then begin
        match
          D.Pipeline.verify_env ~arch:job.Measure.sc_arch ~env:(Env.probe job.Measure.sc_env)
            ~specialize_tb app arm ~gpus
        with
        | Ok err -> Printf.printf "verification OK (max |err| = %.2e)\n" err
        | Error m ->
          Printf.printf "verification FAILED: %s\n" m;
          exit 1
      end;
      job
    end
  in
  run_jobs common ~timeline
    ~report:(List.iter (Format.printf "%a@." Measure.pp_result))
    [ (job, ignore) ]

let dace_cmd =
  let doc = "Compile and run a distributed DaCe benchmark through a pipeline arm (paper §6.2)." in
  Cmd.v
    (Cmd.info "dace" ~doc)
    Term.(
      const run_dace $ common_term $ iters_arg $ app_arg $ arm_arg $ size_arg $ emit_arg
      $ auto_arg $ specialize_arg $ verify_arg $ timeline_arg)

(* --- machine command -------------------------------------------------------- *)

let json_arg =
  let doc =
    "Emit the machine description (endpoints, links, routes) as schema-checked JSON instead of \
     the text summary."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let run_machine common json =
  let arch = common.arch in
  let topo =
    Cpufree_machine.Topology.instantiate common.topology
      ~profile:(G.Arch.fabric_profile arch) ~gpus:common.gpus
  in
  if json then begin
    match Cpufree_core.Machine_json.emit stdout topo with
    | Ok () -> 0
    | Error msg ->
      Printf.eprintf "machine description failed schema validation: %s\n" msg;
      1
  end
  else begin
    Format.printf "%a@." G.Arch.pp arch;
    let f = Time.to_string in
    Printf.printf "  kernel launch:          %s\n" (f arch.G.Arch.kernel_launch);
    Printf.printf "  cooperative launch:     %s\n" (f arch.G.Arch.coop_launch);
    Printf.printf "  stream synchronize:     %s\n" (f arch.G.Arch.stream_sync);
    Printf.printf "  host barrier:           %s\n" (f arch.G.Arch.host_barrier);
    Printf.printf "  grid.sync():            %s\n" (f arch.G.Arch.grid_sync);
    Printf.printf "  host-initiated latency: %s\n" (f arch.G.Arch.host_initiated_latency);
    Printf.printf "  GPU-initiated latency:  %s\n" (f arch.G.Arch.gpu_initiated_latency);
    Printf.printf "  NVSHMEM signal:         %s\n" (f arch.G.Arch.nvshmem_signal);
    Printf.printf "  co-resident blocks:     %d\n" (G.Arch.co_resident_blocks arch);
    Format.printf "%a@." Cpufree_machine.Topology.pp topo;
    Format.printf "%a" Cpufree_machine.Topology.pp_links topo;
    0
  end

let machine_cmd =
  let doc =
    "Print the simulated machine: cost-model parameters and the topology graph (or the full \
     description as JSON with --json)."
  in
  Cmd.v (Cmd.info "machine" ~doc) Term.(const run_machine $ common_term $ json_arg)

(* --- serve command ---------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix domain socket path the daemon binds (or the client connects to)." in
  Arg.(required & opt (some string) None & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let cache_arg =
  let doc = "Result-cache capacity (entries, LRU)." in
  Arg.(value & opt int 128 & info [ "cache" ] ~docv:"N" ~doc)

let max_queue_arg =
  let doc = "Admission bound: in-flight simulations beyond which runs are refused." in
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)

let serve_jobs_arg =
  let doc = "Simulation pool width (default: CPUFREE_JOBS or the host core count)." in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let run_serve socket cache max_queue jobs =
  if cache < 1 then begin
    Printf.eprintf "bad --cache %d: capacity must be positive\n" cache;
    exit 2
  end;
  if max_queue < 1 then begin
    Printf.eprintf "bad --max-queue %d: bound must be positive\n" max_queue;
    exit 2
  end;
  (* The pool width is resolved before the daemon starts: a malformed
     CPUFREE_JOBS (which the default configuration reads) and a
     non-positive --jobs are rejected here, not in the worker domain. *)
  let default_jobs =
    try Cpufree_core.Parallel.default_jobs ()
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let jobs = Option.value jobs ~default:default_jobs in
  if jobs < 1 then begin
    Printf.eprintf "bad --jobs %d: width must be positive\n" jobs;
    exit 2
  end;
  let cfg =
    { (Serve.Server.default_config ~socket_path:socket) with
      Serve.Server.cache_capacity = cache;
      max_queue;
      jobs;
    }
  in
  Printf.printf "serving on %s (cache=%d entries, max-queue=%d, jobs=%d)\n%!" socket
    cfg.Serve.Server.cache_capacity cfg.Serve.Server.max_queue cfg.Serve.Server.jobs;
  Serve.Server.run cfg;
  Printf.printf "shut down\n";
  0

let serve_cmd =
  let doc =
    "Run the scenario daemon: a long-running simulation service over a Unix socket, batching \
     concurrent requests onto a per-batch domain pool and memoizing results by canonical \
     scenario hash."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run_serve $ socket_arg $ cache_arg $ max_queue_arg $ serve_jobs_arg)

(* --- client command --------------------------------------------------------- *)

let scenario_arg =
  let doc =
    "Scenario spec in the canonical textual form, e.g. 'stencil variant=cpu-free \
     dims=2d:512x512 iters=30 gpus=4' or 'dace app=jacobi2d arm=cpu-free size=1024 \
     iters=20'. See Cpufree_core.Scenario."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"SPEC" ~doc)

let repeat_arg =
  let doc = "Submit the scenario $(docv) times (repeats exercise the result cache)." in
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)

let stats_flag =
  let doc = "Print the daemon's request/cache counters." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let shutdown_flag =
  let doc = "Ask the daemon to drain and exit (after any --scenario requests)." in
  Arg.(value & flag & info [ "shutdown" ] ~doc)

let print_run_response = function
  | Serve.Protocol.Ok_resp
      { cached; digest; body = Serve.Protocol.Run_result p; _ } ->
    Printf.printf "%-26s gpus=%d iters=%d total=%s per-iter=%s overlap=%.1f%% bytes=%d%s\n"
      p.Serve.Protocol.label p.Serve.Protocol.gpus p.Serve.Protocol.iterations
      (Time.to_string (Time.ns p.Serve.Protocol.total_ns))
      (Time.to_string (Time.ns p.Serve.Protocol.per_iter_ns))
      (100.0 *. p.Serve.Protocol.overlap)
      p.Serve.Protocol.bytes_moved
      (if cached then "  [cached]" else "");
    (match p.Serve.Protocol.chaos with
    | None -> ()
    | Some c ->
      Printf.printf "  chaos: %s dropped=%d delayed=%d resent=%d retries=%d\n"
        (if c.Serve.Protocol.completed then "completed" else "ABORTED")
        c.Serve.Protocol.dropped c.Serve.Protocol.delayed c.Serve.Protocol.resent
        c.Serve.Protocol.retried);
    (match digest with Some d -> Printf.printf "  digest: %s\n" d | None -> ());
    true
  | Serve.Protocol.Ok_resp _ ->
    Printf.eprintf "unexpected response body\n";
    false
  | Serve.Protocol.Error_resp { message; _ } ->
    Printf.eprintf "error: %s\n" message;
    false
  | Serve.Protocol.Overload_resp _ ->
    Printf.eprintf "overloaded: the daemon refused the run; retry later\n";
    false

let run_client socket scenario repeat stats shutdown =
  if scenario = None && not stats && not shutdown then begin
    Printf.eprintf "nothing to do: pass --scenario, --stats and/or --shutdown\n";
    exit 2
  end;
  let sc =
    match scenario with
    | None -> None
    | Some spec -> (
      match Scenario.of_string spec with
      | Ok sc -> Some sc
      | Error e ->
        Printf.eprintf "bad --scenario: %s\n" e;
        exit 2)
  in
  match Serve.Client.connect socket with
  | Error e ->
    Printf.eprintf "%s\n" e;
    1
  | Ok c ->
    let ok = ref true in
    (match sc with
    | None -> ()
    | Some sc ->
      for id = 1 to max 1 repeat do
        match Serve.Client.run c ~id sc with
        | Ok resp -> if not (print_run_response resp) then ok := false
        | Error e ->
          Printf.eprintf "%s\n" e;
          ok := false
      done);
    if stats then begin
      match Serve.Client.stats c ~id:0 with
      | Ok s ->
        Printf.printf
          "stats: requests=%d hits=%d misses=%d coalesced=%d overloads=%d errors=%d \
           simulations=%d cache=%d\n"
          s.Serve.Protocol.requests s.Serve.Protocol.hits s.Serve.Protocol.misses
          s.Serve.Protocol.coalesced s.Serve.Protocol.overloads s.Serve.Protocol.errors
          s.Serve.Protocol.simulations s.Serve.Protocol.cache_entries
      | Error e ->
        Printf.eprintf "%s\n" e;
        ok := false
    end;
    if shutdown then begin
      match Serve.Client.shutdown c ~id:0 with
      | Ok () -> Printf.printf "daemon shut down\n"
      | Error e ->
        Printf.eprintf "%s\n" e;
        ok := false
    end;
    Serve.Client.close c;
    if !ok then 0 else 1

let client_cmd =
  let doc = "Submit scenarios to a running daemon (and/or query its counters)." in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run_client $ socket_arg $ scenario_arg $ repeat_arg $ stats_flag $ shutdown_flag)

(* --- entry ------------------------------------------------------------------- *)

let () =
  let doc = "CPU-Free multi-GPU execution model simulator (paper reproduction)" in
  let info = Cmd.info "cpufree_run" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info [ stencil_cmd; dace_cmd; machine_cmd; serve_cmd; client_cmd ]
  in
  (* eval_value, not eval': a command-line the parser rejects (unknown flag,
     bad option value, unknown subcommand) must exit 2 — cmdliner has
     already printed the offending token and a usage line on stderr. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
