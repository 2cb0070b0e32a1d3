(* Tests for the observability layer: the metrics registry (typed
   instruments), the Perfetto trace-event
   exporter and its structural validator, the Sim_env record, and the
   end-to-end guarantees — flows pair up, exports are byte-stable across
   repeats, and the Scenario-driven execution path matches the
   hand-assembled one byte for byte. *)

module E = Cpufree_engine
module S = Cpufree_stencil
module Obs = Cpufree_obs
module Mx = Obs.Metrics
module Env = Cpufree_obs.Sim_env
module Measure = Cpufree_core.Measure
module Trace_json = Cpufree_core.Trace_json
module Metrics_json = Cpufree_core.Metrics_json
module J = Cpufree_core.Json
module Fault = Cpufree_fault.Fault
module Trace = E.Trace
module Time = E.Time

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let in_mode mode f =
  Unix.putenv "CPUFREE_PDES" mode;
  Fun.protect ~finally:(fun () -> Unix.putenv "CPUFREE_PDES" "seq") f

(* --- metrics registry ----------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "counter: incr/add/value" `Quick (fun () ->
        let reg = Mx.create () in
        let c = Mx.counter reg ~name:"c" () in
        Mx.Counter.incr c;
        Mx.Counter.add c 41;
        check_int "total" 42 (Mx.Counter.value c));
    Alcotest.test_case "histogram count and sum" `Quick (fun () ->
        let reg = Mx.create () in
        let h = Mx.histogram reg ~name:"h" () in
        Mx.Histogram.observe h 3;
        Mx.Histogram.observe h 100;
        Mx.Histogram.observe h 0;
        check_int "count" 3 (Mx.Histogram.count h);
        check_int "sum" 103 (Mx.Histogram.sum h));
    Alcotest.test_case "registration is idempotent per (name, labels)" `Quick (fun () ->
        let reg = Mx.create () in
        let a = Mx.counter reg ~name:"c" ~labels:[ ("pe", "0") ] () in
        let b = Mx.counter reg ~name:"c" ~labels:[ ("pe", "0") ] () in
        Mx.Counter.incr a;
        Mx.Counter.incr b;
        (* same underlying cell *)
        check_int "one instrument" 2 (Mx.Counter.value a);
        let other = Mx.counter reg ~name:"c" ~labels:[ ("pe", "1") ] () in
        check_int "different labels are a fresh cell" 0 (Mx.Counter.value other));
    Alcotest.test_case "re-registering under another kind is rejected" `Quick (fun () ->
        let reg = Mx.create () in
        let (_ : Mx.Counter.h) = Mx.counter reg ~name:"x" () in
        Alcotest.check_raises "kind clash"
          (Invalid_argument "Metrics: \"x\" is already registered as a counter")
          (fun () -> ignore (Mx.gauge reg ~name:"x" ())));
    Alcotest.test_case "items are in canonical order with sorted labels" `Quick (fun () ->
        let reg = Mx.create () in
        let b = Mx.counter reg ~name:"b" () in
        let a1 = Mx.counter reg ~name:"a" ~labels:[ ("pe", "1") ] () in
        let a0 = Mx.counter reg ~name:"a" ~labels:[ ("pe", "0") ] () in
        Mx.Counter.add a1 7;
        Mx.Counter.incr a0;
        Mx.Counter.incr b;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "by name, then labels"
          [ ("a", "0"); ("a", "1"); ("b", "") ]
          (List.map
             (fun (it : Mx.item) ->
               (it.Mx.name, match it.Mx.labels with [ (_, v) ] -> v | _ -> ""))
             (Mx.items reg));
        check_bool "values follow their cells" true
          (List.map (fun (it : Mx.item) -> it.Mx.value) (Mx.items reg)
          = [ Mx.Counter_v 1; Mx.Counter_v 7; Mx.Counter_v 1 ]));
  ]

(* --- Perfetto exporter and validator -------------------------------------- *)

let sample_trace () =
  let t = Trace.create ~flows:true () in
  Trace.add t ~lane:"gpu0.comp" ~label:"interior" ~kind:Trace.Compute ~t0:(Time.ns 0)
    ~t1:(Time.ns 100);
  Trace.add t ~lane:"gpu0.comm" ~label:"put:halo" ~kind:Trace.Communication ~t0:(Time.ns 100)
    ~t1:(Time.ns 130);
  Trace.add t ~lane:"gpu1.comm" ~label:"deliver:halo" ~kind:Trace.Communication
    ~t0:(Time.ns 120) ~t1:(Time.ns 140);
  Trace.add_instant t ~lane:"host" ~label:"fault:drop:halo" ~at:(Time.ns 90);
  Trace.add_flow t ~id:1 ~label:"halo" ~src_lane:"gpu0.comm" ~src_t:(Time.ns 110)
    ~dst_lane:"gpu1.comm" ~dst_t:(Time.ns 140);
  t

let perfetto_tests =
  [
    Alcotest.test_case "pid_of_lane maps gpuN to partition N+1" `Quick (fun () ->
        check_int "gpu0" 1 (Obs.Perfetto.pid_of_lane "gpu0.comp");
        check_int "gpu3" 4 (Obs.Perfetto.pid_of_lane "gpu3");
        check_int "host" 0 (Obs.Perfetto.pid_of_lane "host");
        check_int "fabric" 0 (Obs.Perfetto.pid_of_lane "fabric.nvlink"));
    Alcotest.test_case "export validates and carries every event phase" `Quick (fun () ->
        let reg = Mx.create () in
        Mx.Counter.add (Mx.counter reg ~name:"nvshmem.puts" ()) 3;
        let s = Obs.Perfetto.to_json_string ~metrics:reg (sample_trace ()) in
        (match Trace_json.validate_string s with
        | Ok () -> ()
        | Error m -> Alcotest.failf "exported doc rejected: %s" m);
        let doc = match J.of_string s with Ok d -> d | Error m -> Alcotest.failf "parse: %s" m in
        let phases =
          match doc with
          | J.Obj kvs -> (
            match List.assoc_opt "traceEvents" kvs with
            | Some (J.List evs) ->
              List.filter_map
                (function
                  | J.Obj e -> (
                    match List.assoc_opt "ph" e with Some (J.String p) -> Some p | _ -> None)
                  | _ -> None)
                evs
            | _ -> Alcotest.fail "no traceEvents")
          | _ -> Alcotest.fail "not an object"
        in
        List.iter
          (fun p -> check_bool (Printf.sprintf "has %S event" p) true (List.mem p phases))
          [ "M"; "X"; "i"; "s"; "f"; "C" ]);
    Alcotest.test_case "validator rejects a dangling flow start" `Quick (fun () ->
        let doc =
          J.Obj
            [
              ( "traceEvents",
                J.List
                  [
                    J.Obj
                      [
                        ("name", J.String "halo");
                        ("ph", J.String "s");
                        ("id", J.Int 7);
                        ("pid", J.Int 0);
                        ("tid", J.String "a");
                        ("ts", J.Float 0.0);
                      ];
                  ] );
            ]
        in
        check_bool "rejected" true (Result.is_error (Trace_json.validate doc)));
    Alcotest.test_case "validator rejects non-monotone lane timestamps" `Quick (fun () ->
        let ev ts =
          J.Obj
            [
              ("name", J.String "k");
              ("ph", J.String "X");
              ("pid", J.Int 0);
              ("tid", J.String "a");
              ("ts", J.Float ts);
              ("dur", J.Float 1.0);
            ]
        in
        let doc = J.Obj [ ("traceEvents", J.List [ ev 5.0; ev 1.0 ]) ] in
        check_bool "rejected" true (Result.is_error (Trace_json.validate doc)));
    Alcotest.test_case "flow arrows may not point backwards in time" `Quick (fun () ->
        let t = Trace.create ~flows:true () in
        Alcotest.check_raises "reversed flow"
          (Invalid_argument "Trace.add_flow: arrow arrives before it departs") (fun () ->
            Trace.add_flow t ~id:1 ~label:"x" ~src_lane:"a" ~src_t:(Time.ns 10) ~dst_lane:"b"
              ~dst_t:(Time.ns 5)));
    Alcotest.test_case "flows are dropped unless the trace opts in" `Quick (fun () ->
        let t = Trace.create () in
        Trace.add_flow t ~id:1 ~label:"x" ~src_lane:"a" ~src_t:(Time.ns 0) ~dst_lane:"b"
          ~dst_t:(Time.ns 1);
        check_int "no flow recorded" 0 (List.length (Trace.flows t));
        check_bool "flows_enabled off" false (Trace.flows_enabled (Some t));
        check_bool "flows_enabled on" true
          (Trace.flows_enabled (Some (Trace.create ~flows:true ()))));
    Alcotest.test_case "metrics_json round-trips through its validator" `Quick (fun () ->
        let reg = Mx.create () in
        Mx.Counter.add (Mx.counter reg ~name:"c" ~labels:[ ("pe", "0") ] ()) 5;
        Mx.Gauge.set (Mx.gauge reg ~name:"g" ()) 9;
        Mx.Histogram.observe (Mx.histogram reg ~name:"h" ()) 300;
        match Metrics_json.validate (Metrics_json.to_json reg) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "emitted metrics doc rejected: %s" m);
  ]

(* --- Sim_env --------------------------------------------------------------- *)

let sim_env_tests =
  [
    Alcotest.test_case "default carries nothing" `Quick (fun () ->
        let e = Env.default in
        check_bool "no topology" true (e.Env.topology = None);
        check_bool "no faults" true (e.Env.faults = None);
        check_int "seed 0" 0 e.Env.fault_seed;
        check_bool "unobserved" false (Env.observed e));
    Alcotest.test_case "resolve_pdes: explicit field beats CPUFREE_PDES" `Quick (fun () ->
        in_mode "windowed" (fun () ->
            check_bool "env var rejected" true
              (match Env.resolve_pdes Env.default with
              | `Seq -> false
              | exception Invalid_argument _ -> true);
            check_bool "field wins" true
              (Env.resolve_pdes (Env.make ~pdes:`Seq ()) = `Seq)));
    Alcotest.test_case "pdes_of_env_var rejects junk" `Quick (fun () ->
        in_mode "bogus" (fun () ->
            check_bool "raises" true
              (try
                 ignore (Env.pdes_of_env_var ());
                 false
               with Invalid_argument _ -> true)));
  ]

(* Scenarios as generable values: every component drawn from a small pool
   by index, so shrinking stays meaningful and every draw is a valid
   scenario by construction (the GPU counts split evenly on every topology
   and cover every GPU the fault plans name). *)
module Scenario = Cpufree_core.Scenario

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

(* A second scenario one field away from the first (or none), so equal
   digests come up often: a flipped execution mode must keep the digest,
   every other change must move it. *)
let nudge (sc : Scenario.t) = function
  | 0 -> sc
  | 1 -> { sc with Scenario.pdes = (if sc.Scenario.pdes = None then Some `Seq else None) }
  | 2 -> { sc with Scenario.trace = not sc.Scenario.trace }
  | 3 -> { sc with Scenario.metrics = not sc.Scenario.metrics }
  | 4 -> { sc with Scenario.fault_seed = sc.Scenario.fault_seed + 1 }
  | 5 -> { sc with Scenario.gpus = 2 * sc.Scenario.gpus }
  | _ -> { sc with Scenario.arch = (if sc.Scenario.arch = "a100" then "h100" else "a100") }

let scenario_law_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_string (to_string sc) = Ok sc" ~count:200 arbitrary_scenario
         (fun sc ->
           Scenario.validate sc = Ok ()
           && Scenario.of_string (Scenario.to_string sc) = Ok sc));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"equal digests mean equal scenarios apart from pdes" ~count:300
         QCheck.(pair arbitrary_scenario (int_bound 6))
         (fun (a, k) ->
           let b = nudge a k in
           let strip sc = { sc with Scenario.pdes = None } in
           Scenario.digest a = Scenario.digest b = (strip a = strip b)));
  ]

(* --- end-to-end: flows, byte-stability, compat ----------------------------- *)

let problem () = S.Problem.make (S.Problem.D2 { nx = 128; ny = 128 }) ~iterations:8

(* A stencil variant's job through Measure.run. *)
let run ?env ?traced kind p ~gpus = Measure.run ?traced (S.Harness.scenario_env ?env kind p ~gpus)
let run_env ?env kind p ~gpus = (run ?env kind p ~gpus).Measure.result
let with_trace (o : Measure.outcome) = (o.Measure.result, Option.get o.Measure.trace)

let traced_env () =
  Env.make ~trace:(Trace.create ~flows:true ()) ~metrics:(Mx.create ()) ()

let export_of_run () =
  let env = traced_env () in
  let (_ : Measure.result) = run_env S.Variants.Cpu_free (problem ()) ~gpus:4 ~env in
  match (env.Env.trace, env.Env.metrics) with
  | Some tr, Some reg -> Obs.Perfetto.to_json_string ~metrics:reg tr
  | _ -> assert false

let end_to_end_tests =
  [
    Alcotest.test_case "an instrumented stencil run pairs its flows" `Quick (fun () ->
        let env = traced_env () in
        let (_ : Measure.result) =
          run_env S.Variants.Cpu_free (problem ()) ~gpus:4 ~env
        in
        let tr = Option.get env.Env.trace in
        let flows = Trace.flows tr in
        check_bool "recorded flows" true (flows <> []);
        List.iter
          (fun (f : Trace.flow) ->
            check_bool "arrow moves forward" true (Time.to_ns f.Trace.f_dst_t >= Time.to_ns f.Trace.f_src_t);
            check_bool "arrow crosses lanes" true (f.Trace.f_src_lane <> f.Trace.f_dst_lane))
          flows;
        let deliveries =
          List.filter
            (fun (s : Trace.span) ->
              String.length s.Trace.label >= 8 && String.sub s.Trace.label 0 8 = "deliver:")
            (Trace.spans tr)
        in
        check_bool "delivery spans recorded" true (deliveries <> []);
        match Trace_json.validate_string (Obs.Perfetto.to_json_string tr) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "export rejected: %s" m);
    Alcotest.test_case "metrics registry sees every layer" `Quick (fun () ->
        let env = traced_env () in
        let (_ : Measure.result) =
          run_env S.Variants.Cpu_free (problem ()) ~gpus:4 ~env
        in
        let reg = Option.get env.Env.metrics in
        let names = List.map (fun it -> it.Mx.name) (Mx.items reg) in
        List.iter
          (fun n -> check_bool (Printf.sprintf "has %s" n) true (List.mem n names))
          [
            "engine.events";
            "engine.partitions";
            "fabric.bytes";
            "nvshmem.puts";
            "runtime.launches";
          ]);
    Alcotest.test_case "Perfetto export is byte-stable across repeats" `Quick (fun () ->
        let first = in_mode "seq" export_of_run in
        let again = in_mode "" export_of_run in
        check_string "identical documents" first again);
    Alcotest.test_case "chaos instants surface in the trace" `Quick (fun () ->
        let spec =
          match Fault.of_string "drop=0.3" with Ok s -> s | Error e -> Alcotest.fail e
        in
        let env =
          Env.make ~faults:spec ~fault_seed:1 ~trace:(Trace.create ~flows:true ()) ()
        in
        let c = Option.get (run S.Variants.Cpu_free (problem ()) ~gpus:2 ~env).Measure.chaos in
        check_bool "plan dropped deliveries" true (c.Measure.dropped > 0);
        let tr = Option.get env.Env.trace in
        let faults =
          List.filter
            (fun (s : Trace.span) ->
              s.Trace.kind = Trace.Marker && String.length s.Trace.label >= 6
              && String.sub s.Trace.label 0 6 = "fault:")
            (Trace.spans tr)
        in
        check_bool "fault markers recorded" true (faults <> []));
    Alcotest.test_case "scenario path is byte-identical to the direct path" `Quick (fun () ->
        (* The Scenario.t → Harness.of_scenario route (what the CLI and the
           daemon run) must match a hand-assembled traced job exactly. *)
        let sc =
          Cpufree_core.Scenario.make ~gpus:4
            (Cpufree_core.Scenario.Stencil
               { variant = "cpu-free"; dims = "2d:64x64"; iters = 5; no_compute = false })
        in
        let hsc =
          match S.Harness.of_scenario sc with Ok s -> s | Error e -> Alcotest.fail e
        in
        let sr, st = with_trace (Measure.run ~traced:true hsc) in
        let p = S.Problem.make (S.Problem.D2 { nx = 64; ny = 64 }) ~iterations:5 in
        let dr, dt =
          with_trace (run ~traced:true ~env:(Env.make ~fault_seed:1 ()) S.Variants.Cpu_free p ~gpus:4)
        in
        check_bool "results equal" true (sr = dr);
        (* Recording order, which implies the canonical order matches. *)
        check_bool "spans equal" true (Trace.spans st = Trace.spans dt));
    Alcotest.test_case "plain runs record no v2 events" `Quick (fun () ->
        let tr = Option.get (run ~traced:true S.Variants.Cpu_free (problem ()) ~gpus:4).Measure.trace in
        check_int "no flows" 0 (List.length (Trace.flows tr));
        check_bool "no delivery spans or markers" true
          (List.for_all
             (fun (s : Trace.span) ->
               s.Trace.kind <> Trace.Marker
               && not
                    (String.length s.Trace.label >= 8
                    && String.sub s.Trace.label 0 8 = "deliver:"))
             (Trace.spans tr)));
  ]

(* --- comm accounting without a span trace --------------------------------- *)

module D = Cpufree_dace

(* An untraced run measures comm and overlap from the engine's busy log; a
   traced run records spans as well. Every field of the result must agree,
   and so must the metrics a registry collects; and the log must measure
   what the span-based reference reads off the traced run's spans. *)
let same_result what (a : Measure.result) (b : Measure.result) =
  check_bool (what ^ ": results equal") true (a = b)

let log_matches_spans what ((r : Measure.result), trace) =
  check_int (what ^ ": compute") (Time.to_ns (Comm_oracle.compute_time trace))
    (Time.to_ns r.Measure.compute);
  check_int (what ^ ": comm") (Time.to_ns (Comm_oracle.comm_time trace))
    (Time.to_ns r.Measure.comm);
  check_bool (what ^ ": overlap") true
    (Float.equal (Comm_oracle.overlap_ratio trace) r.Measure.overlap)

let metrics_env () =
  let reg = Mx.create () in
  (Env.make ~metrics:reg (), reg)

let metrics_doc reg = J.to_string ~indent:0 (Metrics_json.to_json reg)

let both_envs what run_env run_traced =
  let traced = run_traced Env.default in
  log_matches_spans what traced;
  let plain = run_env Env.default in
  same_result (what ^ " untraced vs traced") plain (fst traced);
  let env_a, reg_a = metrics_env () and env_b, reg_b = metrics_env () in
  let metered = run_env env_a in
  same_result (what ^ " metrics-only untraced vs traced") metered (fst (run_traced env_b));
  same_result (what ^ " metrics vs none") plain metered;
  check_string (what ^ " metrics") (metrics_doc reg_a) (metrics_doc reg_b)

let untraced_tests =
  [
    Alcotest.test_case "stencil variants: run_env equals run_traced_env" `Quick (fun () ->
        (* The 3D problem is one where comm overlaps compute. *)
        let problems =
          [
            ("2d", S.Problem.make (S.Problem.D2 { nx = 64; ny = 64 }) ~iterations:5);
            ("3d", S.Problem.make (S.Problem.D3 { nx = 64; ny = 64; nz = 64 }) ~iterations:5);
          ]
        in
        List.iter
          (fun (dims, p) ->
            List.iter
              (fun kind ->
                List.iter
                  (fun gpus ->
                    both_envs
                      (Printf.sprintf "%s %s x%d" dims (S.Variants.name kind) gpus)
                      (fun env -> run_env ~env kind p ~gpus)
                      (fun env -> with_trace (run ~traced:true ~env kind p ~gpus)))
                  [ 1; 2; 4 ])
              S.Variants.all)
          problems);
    Alcotest.test_case "dace arms: run_env equals run_traced_env" `Quick (fun () ->
        let apps =
          [
            D.Pipeline.Jacobi2d { D.Programs.nx_global = 64; ny_global = 64; tsteps = 4 };
            D.Pipeline.Heat3d { D.Programs.nx3 = 32; ny3 = 32; nz3 = 32; tsteps3 = 4 };
          ]
        in
        List.iter
          (fun app ->
            List.iter
              (fun arm ->
                both_envs
                  (D.Pipeline.app_name app ^ "/" ^ D.Pipeline.arm_name arm)
                  (fun env ->
                    (Measure.run (D.Pipeline.scenario_env ~env app arm ~gpus:4)).Measure.result)
                  (fun env ->
                    with_trace
                      (Measure.run ~traced:true (D.Pipeline.scenario_env ~env app arm ~gpus:4))))
              [ D.Pipeline.Baseline_mpi; D.Pipeline.Cpu_free ])
          apps);
    Alcotest.test_case "faulted chaos run: no sink equals a span sink" `Quick (fun () ->
        let faults =
          match Fault.of_string "drop=0.1" with Ok f -> f | Error e -> Alcotest.fail e
        in
        let p = S.Problem.make (S.Problem.D2 { nx = 64; ny = 64 }) ~iterations:12 in
        let run ?trace ?metrics () =
          Option.get
            (run ~env:(Env.make ~faults ~fault_seed:3 ?trace ?metrics ()) S.Variants.Cpu_free p
               ~gpus:4)
              .Measure.chaos
        in
        let plain = run () and sink = Trace.create () in
        let traced = run ~trace:sink () in
        check_bool "faults fired" true (plain.Measure.dropped > 0);
        check_bool "spans were recorded" true (Trace.spans sink <> []);
        check_bool "chaos result equal" true (plain = traced);
        let reg_a = Mx.create () and reg_b = Mx.create () in
        let a = run ~metrics:reg_a () and b = run ~trace:(Trace.create ()) ~metrics:reg_b () in
        check_bool "metrics-only chaos result equal" true (a = b);
        check_string "chaos metrics" (metrics_doc reg_a) (metrics_doc reg_b));
    Alcotest.test_case "run_env keeps no span trace" `Quick (fun () ->
        let trace_of run =
          let seen = ref None in
          ignore
            (run (fun ctx -> seen := Some (E.Engine.trace (Cpufree_gpu.Runtime.engine ctx)))
              : Measure.result);
          match !seen with Some t -> t | None -> Alcotest.fail "program did not run"
        in
        let plain ?env program = Measure.run_env ?env ~label:"t" ~gpus:1 ~iterations:1 program in
        check_bool "default env" true (trace_of (plain ?env:None) = None);
        check_bool "metrics-only env" true
          (trace_of (plain ~env:(fst (metrics_env ()))) = None);
        check_bool "a trace sink attaches one" true
          (trace_of (plain ~env:(Env.make ~trace:(Trace.create ()) ())) <> None);
        check_bool "a traced run attaches one" true
          (trace_of (fun program ->
               (Measure.run ~traced:true (Measure.job ~label:"t" ~gpus:1 ~iterations:1 program))
                 .Measure.result)
          <> None));
  ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("perfetto", perfetto_tests);
      ("sim-env", sim_env_tests);
      ("scenario-law", scenario_law_tests);
      ("end-to-end", end_to_end_tests);
      ("untraced", untraced_tests);
    ]
