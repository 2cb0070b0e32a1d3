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
  Trace.add_instant_opt (Some t) ~lane:"host" ~label:"fault:drop:halo" ~at:(Time.ns 90);
  Trace.add_flow_opt (Some t) ~id:1 ~label:"halo" ~src_lane:"gpu0.comm" ~src_t:(Time.ns 110)
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
        check_bool "rejected" true
          (Result.is_error (Trace_json.validate_string (J.to_string doc))));
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
        check_bool "rejected" true
          (Result.is_error (Trace_json.validate_string (J.to_string doc))));
    Alcotest.test_case "flow arrows may not point backwards in time" `Quick (fun () ->
        let t = Trace.create ~flows:true () in
        Alcotest.check_raises "reversed flow"
          (Invalid_argument "Trace.add_flow: arrow arrives before it departs") (fun () ->
            Trace.add_flow_opt (Some t) ~id:1 ~label:"x" ~src_lane:"a" ~src_t:(Time.ns 10) ~dst_lane:"b"
              ~dst_t:(Time.ns 5)));
    Alcotest.test_case "flows are dropped unless the trace opts in" `Quick (fun () ->
        let t = Trace.create () in
        Trace.add_flow_opt (Some t) ~id:1 ~label:"x" ~src_lane:"a" ~src_t:(Time.ns 0) ~dst_lane:"b"
          ~dst_t:(Time.ns 1);
        check_int "no flow recorded" 0 (List.length (Trace.sorted_flows t));
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
        check_bool "unobserved" true (e.Env.trace = None && e.Env.metrics = None));
    Alcotest.test_case "Measure.run ignores CPUFREE_PDES" `Quick (fun () ->
        let run () =
          let p = S.Problem.make (S.Problem.D2 { nx = 64; ny = 64 }) ~iterations:4 in
          (Measure.run (S.Harness.scenario_env S.Variants.Cpu_free p ~gpus:2)).Measure.result
        in
        let unset = run () in
        Unix.putenv "CPUFREE_PDES" "windowed";
        let set = Fun.protect ~finally:(fun () -> Unix.putenv "CPUFREE_PDES" "") run in
        check_bool "same result" true (unset = set));
  ]

module Scenario = Cpufree_core.Scenario

let arbitrary_scenario = Scenario_gen.arbitrary_scenario

(* A second scenario one field away from the first (or none), so equal
   digests come up often: every change must move the digest. *)
let nudge (sc : Scenario.t) = function
  | 0 -> sc
  | 1 -> { sc with Scenario.trace = not sc.Scenario.trace }
  | 2 -> { sc with Scenario.metrics = not sc.Scenario.metrics }
  | 3 -> { sc with Scenario.fault_seed = sc.Scenario.fault_seed + 1 }
  | 4 -> { sc with Scenario.gpus = 2 * sc.Scenario.gpus }
  | _ -> { sc with Scenario.arch = (if sc.Scenario.arch = "a100" then "h100" else "a100") }

(* Workload strings a token of the scenario line cannot carry, beside ones
   it can. *)
let adversarial_value =
  QCheck.Gen.(
    oneof
      [
        oneofl [ ""; " "; "="; "a b"; "cpu-free gpus=8"; "a=b"; "x\t"; "\ny"; "2d:64x64\r"; "jacobi2d\012" ];
        string_size ~gen:printable (int_bound 12);
      ])

(* A generated scenario with some of its workload strings, and sometimes
   its architecture name, replaced by adversarial ones. *)
let adversarial_scenario =
  let open QCheck.Gen in
  let pick v = oneof [ return v; adversarial_value ] in
  let gen =
    let* sc = QCheck.gen arbitrary_scenario in
    let* arch = pick sc.Scenario.arch in
    let* workload =
      match sc.Scenario.workload with
      | Scenario.Stencil w ->
        let* variant = pick w.variant and* dims = pick w.dims in
        return (Scenario.Stencil { w with variant; dims })
      | Scenario.Dace w ->
        let* app = pick w.app and* arm = pick w.arm in
        return (Scenario.Dace { w with app; arm })
    in
    return { sc with Scenario.arch; workload }
  in
  QCheck.make ~print:Scenario.to_string gen

let scenario_law_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"validate sc = Ok () implies of_string (to_string sc) = Ok sc"
         ~count:500 adversarial_scenario (fun sc ->
           match Scenario.validate sc with
           | Ok () -> Scenario.of_string (Scenario.to_string sc) = Ok sc
           | Error _ -> true));
    Alcotest.test_case "validate rejects workload strings the line cannot carry" `Quick
      (fun () ->
        let stencil variant dims =
          Scenario.make (Scenario.Stencil { variant; dims; iters = 2; no_compute = false })
        in
        let dace app arm =
          Scenario.make
            (Scenario.Dace { app; arm; size = 64; iters = 2; specialize_tb = false })
        in
        List.iter
          (fun (sc, reason) ->
            match Scenario.validate sc with
            | Ok () -> Alcotest.failf "accepted %S" (Scenario.to_string sc)
            | Error e -> check_string "reason" reason e)
          [
            ( stencil "cpu-free gpus=8" "2d:64x64",
              "bad variant \"cpu-free gpus=8\": it must not contain whitespace or '='" );
            (stencil "cpu-free" "", "dims must not be empty");
            (stencil "cpu-free" "2d:64x64\t", "bad dims \"2d:64x64\\t\": it must not contain whitespace or '='");
            (dace "jacobi2d=x" "cpu-free", "bad app \"jacobi2d=x\": it must not contain whitespace or '='");
            (dace "jacobi2d" "", "arm must not be empty");
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_string (to_string sc) = Ok sc" ~count:200 arbitrary_scenario
         (fun sc ->
           Scenario.validate sc = Ok ()
           && Scenario.of_string (Scenario.to_string sc) = Ok sc));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"equal digests mean equal scenarios" ~count:300
         QCheck.(pair arbitrary_scenario (int_bound 5))
         (fun (a, k) ->
           let b = nudge a k in
           Scenario.digest a = Scenario.digest b = (a = b)));
    (* The line keeps the retired execution mode's token at one value, and
       a line naming a driver is refused with the value it takes. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"the pdes token takes only default" ~count:100 arbitrary_scenario
         (fun sc ->
           let line = Scenario.to_string sc in
           let with_mode mode =
             Astring.String.cuts ~sep:" pdes=default " line
             |> String.concat (" pdes=" ^ mode ^ " ")
           in
           let names_default mode =
             match Scenario.of_string (with_mode mode) with
             | Ok _ -> false
             | Error e -> Astring.String.is_infix ~affix:"default" e
           in
           Astring.String.is_infix ~affix:" pdes=default " line
           && names_default "seq" && names_default "optimistic"));
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
        let flows = Trace.sorted_flows tr in
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
        let first = export_of_run () in
        let again = export_of_run () in
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
        check_int "no flows" 0 (List.length (Trace.sorted_flows tr));
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
                    let what = Printf.sprintf "%s %s x%d" dims (S.Variants.name kind) gpus in
                    (* Every run here computes, so every variant must log it. *)
                    let computes (r : Measure.result) =
                      check_bool (what ^ ": compute logged") true
                        Time.(r.Measure.compute > zero);
                      r
                    in
                    both_envs what
                      (fun env -> computes (run_env ~env kind p ~gpus))
                      (fun env ->
                        let r, trace = with_trace (run ~traced:true ~env kind p ~gpus) in
                        (computes r, trace)))
                  [ 1; 2; 4 ])
              S.Variants.extended)
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
            (run (fun ctx k ->
                 seen := Some (E.Engine.trace (Cpufree_gpu.Runtime.engine ctx));
                 k ())
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


(* --- the JSON layer against its reference -------------------------------- *)

(* test/json_oracle.ml keeps the tree parser, the tree validator and the
   Printf renderer; the one-pass code must agree with them on every input,
   error text and byte offset included. *)

module O = Json_oracle
module G = QCheck.Gen

(* Bytes the escaper and the reader treat specially, mixed with plain and
   non-ASCII ones. *)
let tricky_char =
  G.frequency
    [
      (3, G.oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '/'; 'u'; '{'; ',' ]);
      (3, G.printable);
      (1, G.char);
      (1, G.oneofl [ '\xc3'; '\xa9'; '\xe2'; '\x82'; '\xac' ]);
    ]

let tricky_string = G.string_size ~gen:tricky_char (G.int_bound 10)

let gen_float =
  G.oneof
    [
      G.float;
      G.map (fun n -> float_of_int n /. 1000.0) G.int;
      G.oneofl [ 0.0; -0.0; 1e300; -1e-300; 4.5e15; 0.1 ];
    ]

(* Documents whose object keys repeat often (a small key pool), so the
   first-occurrence rule is exercised. *)
let gen_json =
  G.sized
    (G.fix (fun self n ->
         let leaf =
           G.oneof
             [
               G.return J.Null;
               G.map (fun b -> J.Bool b) G.bool;
               G.map (fun i -> J.Int i) (G.oneof [ G.int; G.small_signed_int ]);
               G.map (fun f -> J.Float f) gen_float;
               G.map (fun s -> J.String s) tricky_string;
             ]
         in
         let key = G.oneof [ G.oneofl [ "a"; "ts"; "ph"; "traceEvents" ]; tricky_string ] in
         if n <= 0 then leaf
         else
           G.frequency
             [
               (3, leaf);
               (1, G.map (fun l -> J.List l) (G.list_size (G.int_bound 4) (self (n / 3))));
               ( 1,
                 G.map (fun l -> J.Obj l) (G.list_size (G.int_bound 4) (G.pair key (self (n / 3)))) );
             ]))

(* Truncate, overwrite, delete or insert at a random point. *)
let mutate s =
  let open G in
  let n = String.length s in
  let* k = int_bound (max 0 n) in
  let* c = oneof [ tricky_char; oneofl [ ']'; '}'; ':'; '-'; '.'; 'e'; '0'; '9'; ' ' ] ] in
  let* op = int_bound 3 in
  return
    (match op with
    | 0 -> String.sub s 0 k
    | 1 when k < n -> String.sub s 0 k ^ String.make 1 c ^ String.sub s (k + 1) (n - k - 1)
    | 2 when k < n -> String.sub s 0 k ^ String.sub s (k + 1) (n - k - 1)
    | _ -> String.sub s 0 k ^ String.make 1 c ^ String.sub s k (n - k))

let maybe_mutated gen = G.(gen >>= fun s -> frequency [ (1, return s); (2, mutate s) ])

(* Trace documents written member by member, with duplicates, wrong types,
   unknown phases and flows that may or may not pair up. *)
let gen_event_text =
  let open G in
  let num =
    oneof
      [
        map string_of_int (int_range (-2) 30);
        map (Printf.sprintf "%.3f") (float_range (-1.0) 30.0);
        oneofl [ "\"7\""; "null"; "1e2"; "[]" ];
      ]
  in
  let member =
    oneof
      [
        map (Printf.sprintf "\"name\":%s") (oneofl [ "\"k\""; "\"a\\\"b\""; "5" ]);
        map (Printf.sprintf "\"ph\":%s")
          (oneofl
             [ "\"M\""; "\"X\""; "\"i\""; "\"s\""; "\"f\""; "\"C\""; "\"Q\""; "\"\\u0058\""; "5" ]);
        map (Printf.sprintf "\"pid\":%s") (oneof [ num; oneofl [ "0"; "1" ] ]);
        map (Printf.sprintf "\"tid\":%s") (oneof [ num; oneofl [ "0"; "1" ] ]);
        map (Printf.sprintf "\"ts\":%s") num;
        map (Printf.sprintf "\"dur\":%s") num;
        map (Printf.sprintf "\"id\":%s") (oneof [ num; oneofl [ "1"; "2" ] ]);
        oneofl [ "\"args\":{\"name\":\"x\",\"ts\":-1}"; "\"cat\":\"flow\""; "\"bp\":\"e\"" ];
      ]
  in
  frequency
    [
      (8, map (fun ms -> "{" ^ String.concat "," ms ^ "}") (list_size (int_range 0 9) member));
      (1, oneofl [ "5"; "[]"; "\"e\""; "null" ]);
    ]

(* Events that pass every per-event check, so lane order and flow pairing
   decide the verdict; several flow ids can fail at once. *)
let gen_valid_event =
  let open G in
  let* ph = oneofl [ "X"; "s"; "f"; "i"; "C"; "M" ] in
  let* tid = int_bound 2 in
  let* ts = int_bound 50 in
  let* id = int_bound 40 in
  return
    (Printf.sprintf
       "{\"name\":\"e\",\"ph\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":1,\"id\":%d}"
       ph tid ts id)

let gen_trace_text =
  let open G in
  let* events =
    list_size (int_bound 12)
      (frequency [ (1, gen_event_text); (1, gen_valid_event) ])
    |> fun mixed -> oneof [ mixed; list_size (int_bound 16) gen_valid_event ]
  in
  let list = "[" ^ String.concat "," events ^ "]" in
  oneof
    [
      return ("{\"traceEvents\":" ^ list ^ "}");
      return ("{\"displayTimeUnit\":\"ns\",\"traceEvents\":" ^ list ^ ",\"traceEvents\":5}");
      return ("{\"traceEvents\":{},\"traceEvents\":" ^ list ^ "}");
      return ("{\"other\":" ^ list ^ "}");
      return ("[" ^ list ^ "]");
    ]

(* Engine traces with adversarial lane and label names, timestamps up to
   2^53 ns, instants, flows and counter tracks. *)
let gen_trace =
  let open G in
  let time =
    frequency
      [
        (4, int_bound 100_000);
        (2, int_bound (1 lsl 40));
        (1, int_range ((1 lsl 52) - 5000) ((1 lsl 52) + 5000));
        (1, int_bound (1 lsl 53));
      ]
  in
  let lane = oneof [ oneofl [ "gpu0.comp"; "gpu12.comm"; "host"; "fabric" ]; tricky_string ] in
  let kind =
    oneofl [ Trace.Compute; Trace.Communication; Trace.Synchronization; Trace.Api; Trace.Marker ]
  in
  let span =
    map3 (fun (l, lbl) k (t0, d) -> `Span (l, lbl, k, t0, d)) (pair lane tricky_string) kind
      (pair time time)
  in
  let instant = map3 (fun l lbl t -> `Instant (l, lbl, t)) lane tricky_string time in
  let flow =
    map3 (fun (a, b) lbl (t, d) -> `Flow (a, b, lbl, t, d)) (pair lane lane) tricky_string
      (pair time (int_bound 1000))
  in
  let* items = list_size (int_bound 12) (frequency [ (4, span); (1, instant); (1, flow) ]) in
  let* counters = list_size (int_bound 3) (pair tricky_string (int_bound 1000)) in
  return
    (let t = Trace.create ~flows:true () in
     List.iteri
       (fun i -> function
         | `Span (lane, label, kind, t0, d) ->
           Trace.add t ~lane ~label ~kind ~t0:(Time.ns t0) ~t1:(Time.ns (t0 + d))
         | `Instant (lane, label, at) -> Trace.add_instant_opt (Some t) ~lane ~label ~at:(Time.ns at)
         | `Flow (src_lane, dst_lane, label, src, d) ->
           Trace.add_flow_opt (Some t) ~id:i ~label ~src_lane ~src_t:(Time.ns src) ~dst_lane
             ~dst_t:(Time.ns (src + d)))
       items;
     let reg = Mx.create () in
     List.iter
       (fun (name, v) ->
         Mx.Counter.add (Mx.counter reg ~name ~labels:[ ("k", name) ] ()) v;
         Mx.Gauge.set (Mx.gauge reg ~name:("g." ^ name) ()) v)
       counters;
     (t, reg))

let law ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:String.escaped gen) prop)

let same_parse s = J.of_string s = O.of_string s
let same_verdict s = Trace_json.validate_string s = O.validate_string s

let json_law_tests =
  [
    law "parser agrees with the tree parser on generated documents"
      G.(
        map2 (fun doc indent -> J.to_string ~indent doc) gen_json (oneofl [ 0; 2 ])
        |> maybe_mutated)
      (fun s -> same_parse s && same_verdict s);
    law "validator agrees with parse-then-validate on trace documents"
      (maybe_mutated gen_trace_text) ~count:2000
      (fun s -> same_verdict s && same_parse s);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"renderer writes the reference bytes, and both validators agree"
         ~count:300 (QCheck.make gen_trace) (fun (tr, reg) ->
           let s = Obs.Perfetto.to_json_string ~metrics:reg tr in
           s = O.to_json_string ~metrics:reg tr
           && Obs.Perfetto.to_json_string tr = O.to_json_string tr
           && same_verdict s && same_parse s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mutated renders: same verdict, same error text" ~count:500
         (QCheck.make ~print:String.escaped
            G.(gen_trace >>= fun (tr, reg) -> mutate (Obs.Perfetto.to_json_string ~metrics:reg tr)))
         (fun s -> same_verdict s && same_parse s));
    law "strings are written as the reference escaper writes them" tricky_string ~count:1000
      (fun s ->
        J.to_string (J.String s) = "\"" ^ O.escape s ^ "\""
        && J.of_string (J.to_string (J.String s)) = Ok (J.String s));
    Alcotest.test_case "error texts name the byte offset" `Quick (fun () ->
        let rejects s expected =
          let verdict = Alcotest.result Alcotest.unit Alcotest.string in
          check verdict ("reference: " ^ s) (Error expected) (O.validate_string s);
          check verdict s (Error expected) (Trace_json.validate_string s)
        in
        rejects "{\"traceEvents\":[{\"name\":\"a\\q\"}]}"
          "JSON parse error at byte 28: invalid escape";
        rejects "[1]" "trace document is not an object";
        rejects "{\"traceEvents\":[5],\"x\":tru}"
          "JSON parse error at byte 23: invalid literal (expected true)";
        rejects "{\"traceEvents\":[{\"name\":\"k\",\"pid\":0,\"ph\":\"X\",\"ph\":\"M\"}]}"
          "traceEvents[0] has no \"tid\"";
        rejects "{\"traceEvents\":5,\"traceEvents\":[]}" "\"traceEvents\" is not a list");
  ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("perfetto", perfetto_tests);
      ("json-laws", json_law_tests);
      ("sim-env", sim_env_tests);
      ("scenario-law", scenario_law_tests);
      ("end-to-end", end_to_end_tests);
      ("untraced", untraced_tests);
    ]
