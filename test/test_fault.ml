(* Tests for the chaos layer: fault-spec grammar, deterministic fault plans,
   the engine stall watchdog and wait-for-graph diagnostics, the resilient
   NVSHMEM signal protocol, and fixed-seed reproducibility of whole chaos
   runs. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module S = Cpufree_stencil
module Nv = Cpufree_comm.Nvshmem
module Fault = Cpufree_fault.Fault
module Measure = Cpufree_core.Measure
module Time = E.Time
module Engine = E.Engine
module Env = Cpufree_obs.Sim_env

(* The signal's value at [pe], read through a wait its predicate already
   satisfies. *)
let signal_value nv sig_var ~pe =
  let seen = ref (-1) in
  Nv.signal_wait_until_k nv ~pe ~sig_var
    (fun v ->
      seen := v;
      true)
    ignore;
  !seen

(* A fiber runs a step form through a handover, as it runs any operation
   written only as steps. *)
let in_fiber nv op = Engine.handover (Nv.engine nv) op

(* The NVSHMEM calls these tests make from fibers, each a step form
   handed over. *)
let putmem_signal_nbi nv ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len ~sig_var ~sig_op
    ~sig_value =
  in_fiber nv
    (Nv.putmem_signal_nbi_k nv ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len ~sig_var ~sig_op
       ~sig_value)

let signal_wait_ge nv ?expect_from ~pe ~sig_var v =
  in_fiber nv (Nv.signal_wait_ge_k nv ?expect_from ~pe ~sig_var v)

let quiet nv ~pe = in_fiber nv (Nv.quiet_k nv ~pe)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string
let check_float msg = check (Alcotest.float 1e-9) msg

(* --- spec grammar ------------------------------------------------------- *)

let spec_tests =
  [
    Alcotest.test_case "of_string parses every clause" `Quick (fun () ->
        match
          Fault.of_string "drop=0.02;delay=0.1@2000;straggler=3x1.5;flap=40@0.25x2;nic=100+200"
        with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok s ->
          check_float "drop" 0.02 s.Fault.drop_prob;
          check_float "delay p" 0.1 s.Fault.delay_prob;
          check_int "delay ns" 2000 s.Fault.delay_ns;
          check
            (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
            "stragglers" [ (3, 1.5) ] s.Fault.stragglers;
          (match s.Fault.flap with
          | None -> Alcotest.fail "flap missing"
          | Some f ->
            check_int "flap period" 40_000 (Time.to_ns f.Fault.flap_period);
            check_float "flap duty" 0.25 f.Fault.flap_duty;
            check_float "flap mult" 2.0 f.Fault.flap_mult);
          check_int "nic outages" 1 (List.length s.Fault.nic_outages));
    Alcotest.test_case "commas and semicolons both separate clauses" `Quick (fun () ->
        let a = Fault.of_string "drop=0.1,delay=0.2@500" in
        let b = Fault.of_string "drop=0.1;delay=0.2@500" in
        check_bool "equal" true (a = b && Result.is_ok a));
    Alcotest.test_case "to_string round-trips" `Quick (fun () ->
        let src = "drop=0.05;straggler=1x2;retry=50x3;backoff=1.5" in
        match Fault.of_string src with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok s -> (
          match Fault.of_string (Fault.to_string s) with
          | Error e -> Alcotest.failf "re-parse failed: %s" e
          | Ok s' -> check_bool "round-trip" true (s = s')));
    Alcotest.test_case "bad specs are rejected with messages" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Fault.of_string bad with
            | Ok _ -> Alcotest.failf "spec %S should not parse" bad
            | Error msg -> check_bool "message" true (String.length msg > 0))
          [ "drop=2"; "bogus"; "straggler=0x0.5"; "delay=0.1"; "" ]);
    Alcotest.test_case "fail-stop clauses parse, render and activate the spec" `Quick
      (fun () ->
        match Fault.of_string "kill=2@500;linkfail=gpu0-sw1@800;switchfail=nvsw0@1000" with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok s ->
          check_bool "failstop" true (Fault.has_failstop s);
          check_bool "active" true (Fault.is_active s);
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
            "kill time" [ (2, 500_000) ]
            (List.map (fun (g, t) -> (g, Time.to_ns t)) (Fault.killed_by s ~now:(Time.us 500)));
          check_bool "alive before" false (Fault.dead s ~pe:2 ~now:(Time.us 499));
          check_bool "dead after" true (Fault.dead s ~pe:2 ~now:(Time.us 500));
          check_int "links" 1 (List.length s.Fault.link_fails);
          check_int "switches" 1 (List.length s.Fault.switch_fails);
          (match Fault.of_string (Fault.to_string s) with
          | Ok s' -> check_bool "round-trip" true (s = s')
          | Error e -> Alcotest.failf "re-parse failed: %s" e));
    Alcotest.test_case "unknown clause names the token and lists the grammar" `Quick
      (fun () ->
        match Fault.of_string "drop=0.1;gremlin=3@4" with
        | Ok _ -> Alcotest.fail "gremlin should not parse"
        | Error msg ->
          check_bool "names the offender" true
            (Astring.String.is_infix ~affix:"\"gremlin\"" msg);
          List.iter
            (fun clause ->
              check_bool (clause ^ " listed") true (Astring.String.is_infix ~affix:clause msg))
            [
              "drop=P"; "delay=P@NS"; "straggler=GxM"; "kill=GPU@T_US";
              "linkfail=SRC-DST@T_US"; "switchfail=NAME@T_US"; "retry=TIMEOUT_USxN";
            ]);
    Alcotest.test_case "none is inactive, presets above zero are active" `Quick (fun () ->
        check_bool "none" false (Fault.is_active Fault.none);
        check_bool "preset 0" false (Fault.is_active (Fault.preset ~intensity:0.0));
        check_bool "preset 1" true (Fault.is_active (Fault.preset ~intensity:1.0)));
    Alcotest.test_case "default watchdog clears the retry budget" `Quick (fun () ->
        let s = Fault.preset ~intensity:1.0 in
        let budget = ref Time.zero in
        let t = ref s.Fault.retry_timeout in
        for _ = 0 to s.Fault.max_retries do
          budget := Time.add !budget !t;
          t := Time.scale !t s.Fault.backoff
        done;
        check_bool "watchdog > budget" true Time.(Fault.default_watchdog s > !budget));
    (* Generated specs use values that print exactly under %g, so structural
       equality is the right round-trip check. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_string (to_string s) = Ok s" ~count:200
         (QCheck.make ~print:Fault.to_string
            QCheck.Gen.(
              let prob = oneofl [ 0.0; 0.01; 0.05; 0.1; 0.25; 0.5 ] in
              let mult = oneofl [ 1.0; 1.5; 2.0; 2.5 ] in
              let us = map Time.us (int_range 1 900) in
              let vertex = oneofl [ "gpu0"; "gpu1"; "sw0"; "nvsw1" ] in
              let* drop_prob = prob in
              let* delay_prob = prob in
              let* delay_ns = if delay_prob > 0.0 then int_range 1 5000 else return 0 in
              let* stragglers = list_size (int_bound 2) (pair (int_bound 7) mult) in
              let* flap =
                opt
                  (let* p = int_range 1 100 in
                   let* duty = oneofl [ 0.0; 0.25; 0.5; 1.0 ] in
                   let* m = mult in
                   return
                     { Fault.flap_period = Time.us p; flap_duty = duty; flap_mult = m })
              in
              let* nic_outages = list_size (int_bound 2) (pair us us) in
              let* kills = list_size (int_bound 2) (pair (int_bound 7) us) in
              let* link_fails = list_size (int_bound 2) (pair (pair vertex vertex) us) in
              let* switch_fails = list_size (int_bound 2) (pair vertex us) in
              let* retry_timeout = us in
              let* max_retries = int_bound 6 in
              let* backoff = mult in
              return
                {
                  Fault.drop_prob; delay_prob; delay_ns; stragglers; flap; nic_outages;
                  kills; link_fails; switch_fails; retry_timeout; max_retries; backoff;
                }))
         (fun s ->
           match Fault.of_string (Fault.to_string s) with
           | Ok s' -> s' = s
           | Error _ -> false));
  ]

(* --- plan determinism --------------------------------------------------- *)

let fates plan ~from_pe n = List.init n (fun _ -> Fault.delivery_fate plan ~from_pe)

let plan_tests =
  [
    Alcotest.test_case "same seed draws the same fate sequence" `Quick (fun () ->
        let spec = Fault.preset ~intensity:2.0 in
        let a = Fault.activate spec ~seed:7 ~gpus:4 in
        let b = Fault.activate spec ~seed:7 ~gpus:4 in
        check_bool "pe0" true (fates a ~from_pe:0 100 = fates b ~from_pe:0 100);
        check_bool "pe3" true (fates a ~from_pe:3 100 = fates b ~from_pe:3 100));
    Alcotest.test_case "per-PE streams are independent of draw interleaving" `Quick (fun () ->
        let spec = Fault.preset ~intensity:2.0 in
        let a = Fault.activate spec ~seed:11 ~gpus:2 in
        let b = Fault.activate spec ~seed:11 ~gpus:2 in
        (* a: all of pe0 then all of pe1; b: alternating. *)
        let a0 = fates a ~from_pe:0 50 and a1 = fates a ~from_pe:1 50 in
        let b01 =
          List.init 100 (fun i -> Fault.delivery_fate b ~from_pe:(i mod 2))
        in
        let b0 = List.filteri (fun i _ -> i mod 2 = 0) b01 in
        let b1 = List.filteri (fun i _ -> i mod 2 = 1) b01 in
        check_bool "pe0 stream" true (a0 = b0);
        check_bool "pe1 stream" true (a1 = b1));
    Alcotest.test_case "stragglers scale only their GPU" `Quick (fun () ->
        let spec = { Fault.none with Fault.stragglers = [ (1, 2.5) ] } in
        let p = Fault.activate spec ~seed:1 ~gpus:3 in
        check_float "gpu0" 1.0 (Fault.compute_scale p ~gpu:0);
        check_float "gpu1" 2.5 (Fault.compute_scale p ~gpu:1);
        check_float "gpu2" 1.0 (Fault.compute_scale p ~gpu:2));
    Alcotest.test_case "NIC outage holds inter-node paths only" `Quick (fun () ->
        let spec =
          { Fault.none with Fault.nic_outages = [ (Time.us 100, Time.us 50) ] }
        in
        let p = Fault.activate spec ~seed:1 ~gpus:2 in
        let hold_inter, _ = Fault.fabric_penalty p ~now:(Time.us 120) ~inter_node:true in
        let hold_intra, _ = Fault.fabric_penalty p ~now:(Time.us 120) ~inter_node:false in
        let hold_after, _ = Fault.fabric_penalty p ~now:(Time.us 200) ~inter_node:true in
        check_bool "held" true Time.(hold_inter > zero);
        check_int "intra free" 0 (Time.to_ns hold_intra);
        check_int "after free" 0 (Time.to_ns hold_after));
    Alcotest.test_case "lost registry replays oldest first" `Quick (fun () ->
        let p = Fault.activate (Fault.preset ~intensity:1.0) ~seed:1 ~gpus:2 in
        let order = ref [] in
        Fault.record_lost p ~key:"k" (fun k ->
            order := 1 :: !order;
            k ());
        Fault.record_lost p ~key:"k" (fun k ->
            order := 2 :: !order;
            k ());
        check_int "pending" 2 (Fault.lost_count p);
        List.iter (fun f -> f ignore) (Fault.recover_lost p ~key:"k");
        check (Alcotest.list Alcotest.int) "order" [ 2; 1 ] !order;
        check_int "drained" 0 (Fault.lost_count p);
        check_int "re-recover empty" 0 (List.length (Fault.recover_lost p ~key:"k")));
  ]

(* --- engine: watchdog, stall diagnostics, wait-for cycles ---------------- *)

(* A step process named [name]. *)
let proc eng ?daemon ?group name body =
  Engine.spawn_callbacks eng ~name_of:(fun () -> name) ?daemon ?group body

(* [f eng] as the first step of a step process "main" on a fresh engine. *)
let run_sim ?watchdog f =
  let eng = Engine.create ?watchdog () in
  let (_ : Engine.process) = proc eng "main" (fun () -> f eng) in
  Engine.run eng

let engine_tests =
  [
    Alcotest.test_case "watchdog converts a livelocked wait into Stall" `Quick (fun () ->
        match
          run_sim ~watchdog:(Time.us 50) (fun eng ->
              let never = E.Sync.Flag.create ~name:"never" eng 0 in
              let (_ : Engine.process) =
                proc eng "stuck" ~group:"gpu0" (fun () -> E.Sync.Flag.wait_ge_k never 1 ignore)
              in
              (* Keep the clock moving so the watchdog gets to scan. *)
              let rec tick n =
                if n > 0 then Engine.after eng (Time.us 10) (fun () -> tick (n - 1))
              in
              tick 20)
        with
        | () -> Alcotest.fail "expected Stall"
        | exception Engine.Stall r ->
          check_bool "trigger names the watchdog" true
            (Astring.String.is_infix ~affix:"watchdog" r.Engine.stall_trigger);
          check_bool "stuck process is reported" true
            (List.exists (fun l -> Astring.String.is_infix ~affix:"stuck" l) r.Engine.stall_blocked);
          check_bool "stalled well before the driver ran dry" true
            Time.(r.Engine.stall_at < Time.us 200));
    Alcotest.test_case "watchdog ignores daemons and timed waits" `Quick (fun () ->
        run_sim ~watchdog:(Time.us 20) (fun eng ->
            let never = E.Sync.Flag.create ~name:"never" eng 0 in
            let (_ : Engine.process) =
              proc eng "service" ~daemon:true (fun () -> E.Sync.Flag.wait_ge_k never 1 ignore)
            in
            (* Plain delays are timed blocks: far longer than the watchdog
               bound, yet no Stall. *)
            Engine.after eng (Time.ms 1) ignore));
    Alcotest.test_case "deadlock report includes the wait-for cycle" `Quick (fun () ->
        let eng = Engine.create () in
        let fa = E.Sync.Flag.create ~name:"fa" eng 0 in
        let fb = E.Sync.Flag.create ~name:"fb" eng 0 in
        let (_ : Engine.process) =
          proc eng "a" ~group:"gpu0" (fun () -> E.Sync.Flag.wait_ge_k ~waits_on:"gpu1" fa 1 ignore)
        in
        let (_ : Engine.process) =
          proc eng "b" ~group:"gpu1" (fun () -> E.Sync.Flag.wait_ge_k ~waits_on:"gpu0" fb 1 ignore)
        in
        (match Engine.run eng with
        | () -> Alcotest.fail "expected Deadlock"
        | exception Engine.Deadlock lines ->
          check_int "two blocked + cycle line" 3 (List.length lines);
          check_bool "cycle rendered" true
            (List.exists (fun l -> Astring.String.is_infix ~affix:"wait-for cycle" l) lines);
          check_bool "groups shown" true
            (List.exists (fun l -> Astring.String.is_infix ~affix:"a(#1) [gpu0]: " l) lines)));
    Alcotest.test_case "deadlock without a cycle omits the cycle line" `Quick (fun () ->
        let eng = Engine.create () in
        let fa = E.Sync.Flag.create ~name:"fa" eng 0 in
        let (_ : Engine.process) =
          proc eng "lonely" (fun () -> E.Sync.Flag.wait_ge_k fa 1 ignore)
        in
        (match Engine.run eng with
        | () -> Alcotest.fail "expected Deadlock"
        | exception Engine.Deadlock lines -> check_int "one line" 1 (List.length lines)));
    Alcotest.test_case "Flag.await times out at the deadline and can still succeed" `Quick
      (fun () ->
        run_sim (fun eng ->
            let f = E.Sync.Flag.create ~name:"f" eng 0 in
            let (_ : Engine.process) =
              proc eng "setter" (fun () ->
                  Engine.after eng (Time.us 30) (fun () -> E.Sync.Flag.set f 1))
            in
            let t0 = Engine.now eng in
            let at_least_one v = v >= 1 in
            E.Sync.Flag.await_k f ~deadline:(Time.add t0 (Time.us 10)) at_least_one (function
              | `Ok -> Alcotest.fail "should have timed out"
              | `Timeout ->
                check_int "woke at the deadline" 10_000 (Time.to_ns (Engine.now eng));
                E.Sync.Flag.await_k f ~deadline:(Time.add t0 (Time.us 100)) at_least_one (function
                  | `Timeout -> Alcotest.fail "setter should have satisfied the wait"
                  | `Ok -> check_int "woke on the set" 30_000 (Time.to_ns (Engine.now eng))))));
  ]

(* --- NVSHMEM under injected faults --------------------------------------- *)

let with_fault_machine ?(gpus = 2) ~spec ~seed f =
  let eng = Engine.create () in
  let env = Env.make ~faults:spec ~fault_seed:seed () in
  let ctx = G.Runtime.create eng ~env ~num_gpus:gpus () in
  let plan = Option.get (G.Runtime.faults ctx) in
  let (_ : Engine.process) = Engine.spawn eng ~name:"main" (fun () -> f eng ctx plan) in
  Engine.run eng;
  plan

let nvshmem_tests =
  [
    Alcotest.test_case "data lands before the signal under injected delay" `Quick (fun () ->
        let spec = { Fault.none with Fault.delay_prob = 1.0; Fault.delay_ns = 5000 } in
        let plan =
          with_fault_machine ~spec ~seed:1 (fun _eng ctx _plan ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 4 in
              G.Buffer.init (Nv.local s ~pe:0) float_of_int;
              let sg = Nv.signal_malloc nv ~label:"sig" () in
              putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:2 ~sig_var:sg ~sig_op:Nv.Signal_set ~sig_value:1;
              signal_wait_ge nv ~expect_from:0 ~pe:1 ~sig_var:sg 1;
              (* NVSHMEM's ordering guarantee must survive the delayed
                 delivery: at signal observation the data is readable. *)
              check_float "data before signal" 0.0 (G.Buffer.get (Nv.local s ~pe:1) 0);
              check_float "data before signal (2)" 1.0 (G.Buffer.get (Nv.local s ~pe:1) 1))
        in
        check_int "delivery drew the delay" 1 (Fault.stats plan).Fault.delayed);
    Alcotest.test_case "dropped signal delivery is recovered by the resilient wait" `Quick
      (fun () ->
        let spec = { Fault.none with Fault.drop_prob = 1.0 } in
        let plan =
          with_fault_machine ~spec ~seed:2 (fun _eng ctx _plan ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 4 in
              G.Buffer.init (Nv.local s ~pe:0) (fun i -> float_of_int (10 + i));
              let sg = Nv.signal_malloc nv ~label:"sig" () in
              putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:2 ~sig_var:sg ~sig_op:Nv.Signal_set ~sig_value:1;
              signal_wait_ge nv ~expect_from:0 ~pe:1 ~sig_var:sg 1;
              check_float "replayed data" 10.0 (G.Buffer.get (Nv.local s ~pe:1) 0);
              check_int "replayed signal" 1 (signal_value nv sg ~pe:1))
        in
        let st = Fault.stats plan in
        check_int "dropped" 1 st.Fault.dropped;
        check_bool "resent" true (st.Fault.resent >= 1);
        check_bool "retried" true (st.Fault.retried >= 1);
        check_int "registry drained" 0 (Fault.lost_count plan));
    Alcotest.test_case "dropped plain put is retransmitted by quiet" `Quick (fun () ->
        let spec = { Fault.none with Fault.drop_prob = 1.0 } in
        let plan =
          with_fault_machine ~spec ~seed:3 (fun _eng ctx _plan ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 4 in
              G.Buffer.init (Nv.local s ~pe:0) float_of_int;
              in_fiber nv
                (Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:1 ~dst:s
                 ~dst_pos:0 ~len:2);
              quiet nv ~pe:0;
              check_float "retransmitted" 1.0 (G.Buffer.get (Nv.local s ~pe:1) 0))
        in
        check_bool "resent" true ((Fault.stats plan).Fault.resent >= 1));
    Alcotest.test_case "a wait nothing can satisfy raises a diagnosed Stall" `Quick (fun () ->
        let spec =
          {
            Fault.none with
            Fault.drop_prob = 0.5;
            Fault.retry_timeout = Time.us 5;
            Fault.max_retries = 2;
          }
        in
        match
          with_fault_machine ~spec ~seed:4 (fun _eng ctx _plan ->
              let nv = Nv.init ctx in
              let sg = Nv.signal_malloc nv ~label:"ghost" () in
              (* No sender exists: the retries must exhaust, not spin. *)
              signal_wait_ge nv ~pe:1 ~sig_var:sg 1)
        with
        | (_ : Fault.plan) -> Alcotest.fail "expected Stall"
        | exception Engine.Stall r ->
          check_bool "trigger names the signal" true
            (Astring.String.is_infix ~affix:"ghost" r.Engine.stall_trigger);
          check_bool "trigger reports exhaustion" true
            (Astring.String.is_infix ~affix:"retries exhausted" r.Engine.stall_trigger));
    Alcotest.test_case "inactive plan leaves delivery timing untouched" `Quick (fun () ->
        let finish spec =
          let eng = Engine.create () in
          let ctx =
            match spec with
            | None -> G.Runtime.create eng ~num_gpus:2 ()
            | Some s ->
              G.Runtime.create eng ~env:(Env.make ~faults:s ~fault_seed:9 ()) ~num_gpus:2 ()
          in
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"main" (fun () ->
                let nv = Nv.init ctx in
                let s = Nv.sym_malloc nv ~label:"x" 4 in
                let sg = Nv.signal_malloc nv ~label:"sig" () in
                putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                  ~dst:s ~dst_pos:0 ~len:2 ~sig_var:sg ~sig_op:Nv.Signal_set ~sig_value:1;
                signal_wait_ge nv ~pe:1 ~sig_var:sg 1)
          in
          Engine.run eng;
          Time.to_ns (Engine.now eng)
        in
        check_int "byte-identical timing" (finish None) (finish (Some Fault.none)));
  ]

(* --- whole-run chaos: graceful degradation and reproducibility ----------- *)

let small_problem = S.Problem.make (S.Problem.D2 { nx = 128; ny = 128 }) ~iterations:5

(* A faulted stencil run: the variant's job through Measure.run. *)
let run_chaos ~env kind problem ~gpus =
  Option.get (Measure.run (S.Harness.scenario_env ~env kind problem ~gpus)).Measure.chaos

let chaos_digest (c : Measure.chaos) =
  ( Time.to_ns c.Measure.base.Measure.total,
    c.Measure.completed,
    (c.Measure.dropped, c.Measure.delayed, c.Measure.resent, c.Measure.retried),
    Array.to_list c.Measure.progress )

(* The full diagnosis of three aborted runs (4 GPUs, 2d:512x512, 30
   iterations, drop=0.5;retry=5x0, fault seed 3): every blocked host rank,
   role, grid barrier, stream flag and in-flight put, by name, pid, group,
   reason and since. *)
let pinned_failures =
  [
    ( S.Variants.Cpu_free,
      [
        "stall at 23.07us: signal halo.from_below@pe0: 0 retries exhausted after 5.00us (value 1)";
        "main(#1): flag cpu_free.joined (value 0) (since 0ns)";
        "cpu_free.host0(#2) [host]: flag cpu_free.gpu0.done (value 0) (since 9.00us)";
        "cpu_free.host1(#3) [host]: flag cpu_free.gpu1.done (value 0) (since 9.00us)";
        "cpu_free.host2(#4) [host]: flag cpu_free.gpu2.done (value 0) (since 9.00us)";
        "cpu_free.host3(#5) [host]: flag cpu_free.gpu3.done (value 0) (since 9.00us)";
        "cpu_free.gpu0.comm_top(#6) [gpu0]: barrier gpu0.grid (gen 2, 1/3) (since 21.15us)";
        "cpu_free.gpu0.inner(#8) [gpu0]: barrier gpu0.grid (gen 2, 2/3) (since 21.21us)";
        "cpu_free.gpu1.comm_top(#9) [gpu1]: delay (since 22.29us)";
        "cpu_free.gpu1.comm_bottom(#10) [gpu1]: barrier gpu1.grid (gen 1, 2/3) (since 18.07us)";
        "cpu_free.gpu1.inner(#11) [gpu1]: barrier gpu1.grid (gen 1, 1/3) (since 17.77us)";
        "cpu_free.gpu2.comm_top(#12) [gpu2]: delay (since 20.56us)";
        "cpu_free.gpu2.comm_bottom(#13) [gpu2]: delay (since 22.29us)";
        "cpu_free.gpu2.inner(#14) [gpu2]: barrier gpu2.grid (gen 1, 1/3) (since 17.77us)";
        "cpu_free.gpu3.comm_top(#15) [gpu3]: delay (since 22.29us)";
        "cpu_free.gpu3.comm_bottom(#16) [gpu3]: barrier gpu3.grid (gen 1, 1/3) (since 17.72us)";
        "cpu_free.gpu3.inner(#17) [gpu3]: barrier gpu3.grid (gen 1, 2/3) (since 17.77us)";
      ] );
    ( S.Variants.Cpu_free_multi,
      [
        "stall at 31.78us: signal halo.from_below@pe0: 0 retries exhausted after 5.00us (value 1)";
        "main(#1): flag cpu_free_2k.joined (value 0) (since 0ns)";
        "cpu_free_2k.host0(#2) [host]: flag comm_kernel.gpu0.done (value 0) (since 18.00us)";
        "cpu_free_2k.host1(#3) [host]: flag comm_kernel.gpu1.done (value 0) (since 18.00us)";
        "cpu_free_2k.host2(#4) [host]: flag comm_kernel.gpu2.done (value 0) (since 18.00us)";
        "cpu_free_2k.host3(#5) [host]: flag comm_kernel.gpu3.done (value 0) (since 18.00us)";
        "comm_kernel.gpu0.comm_top(#6) [gpu0]: barrier gpu0.grid (gen 2, 1/2) (since 30.16us)";
        "comm_kernel.gpu1.comm_top(#8) [gpu1]: delay (since 31.30us)";
        "comm_kernel.gpu1.comm_bottom(#9) [gpu1]: barrier gpu1.grid (gen 1, 1/2) (since 26.77us)";
        "comm_kernel.gpu2.comm_top(#10) [gpu2]: delay (since 29.26us)";
        "comm_kernel.gpu2.comm_bottom(#11) [gpu2]: delay (since 31.00us)";
        "comm_kernel.gpu3.comm_top(#12) [gpu3]: delay (since 31.30us)";
        "comm_kernel.gpu3.comm_bottom(#13) [gpu3]: barrier gpu3.grid (gen 1, 1/2) (since 26.42us)";
        "comp_kernel.gpu0.inner(#20) [gpu0]: flag gpu0.comm_done (value 2) (since 30.21us)";
        "comp_kernel.gpu1.inner(#21) [gpu1]: flag gpu1.comm_done (value 1) (since 26.78us)";
        "comp_kernel.gpu2.inner(#22) [gpu2]: flag gpu2.comm_done (value 1) (since 26.78us)";
        "comp_kernel.gpu3.inner(#23) [gpu3]: flag gpu3.comm_done (value 1) (since 26.78us)";
      ] );
    ( S.Variants.Nvshmem,
      [
        "stall at 72.20us: signal halo.from_below@pe0: 0 retries exhausted after 5.00us (value 2)";
        "main(#1): flag nvshmem.joined (value 0) (since 0ns)";
        "nvshmem.host0(#2) [host]: delay (since 71.50us)";
        "nvshmem.host1(#3) [host]: flag s0.completed (value 4) (since 60.59us)";
        "nvshmem.host2(#4) [host]: delay (since 70.25us)";
        "nvshmem.host3(#5) [host]: delay (since 66.74us)";
        "nvshmem.putmem_signal_nbi.pe1.17(#26): delay (since 72.00us)";
      ] );
  ]

let chaos_tests =
  [
    Alcotest.test_case "an unrecoverable chaos run degrades gracefully" `Quick (fun () ->
        let spec =
          match Fault.of_string "drop=0.5;retry=5x0" with
          | Ok s -> s
          | Error e -> Alcotest.failf "spec: %s" e
        in
        let problem =
          S.Problem.make (S.Problem.D2 { nx = 512; ny = 512 }) ~iterations:30
        in
        let c =
          run_chaos
            ~env:(Env.make ~faults:spec ~fault_seed:3 ())
            S.Variants.Cpu_free problem ~gpus:4
        in
        check_bool "aborted" false c.Measure.completed;
        check_bool "has a trigger" true (c.Measure.trigger <> None);
        check_bool "has diagnosis lines" true (c.Measure.failure <> []);
        check_int "progress for every PE" 4 (Array.length c.Measure.progress);
        (* Partial metrics: some iterations completed, but not all. *)
        check_bool "made some progress" true
          (Array.exists (fun p -> p > 0) c.Measure.progress);
        check_bool "did not finish" true
          (Array.exists (fun p -> p < 30) c.Measure.progress);
        check_bool "partial time recorded" true Time.(c.Measure.base.Measure.total > zero));
    Alcotest.test_case "aborted runs keep their failure lines" `Quick (fun () ->
        let spec = Result.get_ok (Fault.of_string "drop=0.5;retry=5x0") in
        let problem = S.Problem.make (S.Problem.D2 { nx = 512; ny = 512 }) ~iterations:30 in
        List.iter
          (fun (kind, want) ->
            let c =
              run_chaos ~env:(Env.make ~faults:spec ~fault_seed:3 ()) kind problem ~gpus:4
            in
            check (Alcotest.list Alcotest.string) (S.Variants.name kind) want c.Measure.failure)
          pinned_failures);
    Alcotest.test_case "fault-free chaos control completes with zero fault traffic" `Quick
      (fun () ->
        let c =
          run_chaos
            ~env:(Env.make ~faults:(Fault.preset ~intensity:0.0) ~fault_seed:1 ())
            S.Variants.Cpu_free small_problem ~gpus:2
        in
        check_bool "completed" true c.Measure.completed;
        check_int "dropped" 0 c.Measure.dropped;
        check_int "resent" 0 c.Measure.resent;
        check (Alcotest.list Alcotest.int) "progress" [ 5; 5 ]
          (Array.to_list c.Measure.progress));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fixed fault seed is bit-identical, seq == repeat" ~count:8
         QCheck.(pair (float_bound_exclusive 3.0) (int_bound 999))
         (fun (intensity, seed) ->
           let run () =
             chaos_digest
               (run_chaos
                  ~env:(Env.make ~faults:(Fault.preset ~intensity) ~fault_seed:seed ())
                  S.Variants.Cpu_free small_problem ~gpus:2)
           in
           let first = run () in
           first = run () && first = run ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"baseline scheme chaos is equally reproducible" ~count:4
         QCheck.(int_bound 999)
         (fun seed ->
           let run () =
             chaos_digest
               (run_chaos
                  ~env:(Env.make ~faults:(Fault.preset ~intensity:1.5) ~fault_seed:seed ())
                  S.Variants.Nvshmem small_problem ~gpus:2)
           in
           run () = run ()));
    (* Fail-stop kills abort through the resilient-wait diagnosis; the full
       chaos digest (time, counters, trigger, per-PE progress) must repeat
       bit for bit. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fail-stop chaos is bit-identical in all repeats" ~count:6
         QCheck.(triple (int_bound 1) (int_range 20 400) (int_bound 999))
         (fun (victim, t_us, seed) ->
           let spec =
             match Fault.of_string (Printf.sprintf "drop=0.01;kill=%d@%d" victim t_us) with
             | Ok s -> s
             | Error e -> Alcotest.failf "spec: %s" e
           in
           let run () =
             let c =
               run_chaos
                 ~env:(Env.make ~faults:spec ~fault_seed:seed ())
                 S.Variants.Cpu_free small_problem ~gpus:2
             in
             (chaos_digest c, c.Measure.trigger)
           in
           let first = run () in
           first = run () && first = run ()));
  ]

let () =
  ignore check_string;
  Alcotest.run "fault"
    [
      ("spec", spec_tests);
      ("plan", plan_tests);
      ("engine", engine_tests);
      ("nvshmem", nvshmem_tests);
      ("chaos", chaos_tests);
    ]
