(* Tests for the CPU-Free execution model library: thread-block
   specialization, the halo signaling protocol, persistent launch, and the
   measurement harness. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Core = Cpufree_core
module Specialize = Core.Specialize
module Proto = Core.Signal_proto
module Persistent = Core.Persistent
module Measure = Core.Measure
module Time = E.Time
module Engine = E.Engine

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-9) msg

let with_machine ?(gpus = 2) f =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:gpus () in
  let (_ : Engine.process) = Engine.spawn eng ~name:"main" (fun () -> f eng ctx) in
  Engine.run eng;
  (eng, ctx)

(* The protocol's and NVSHMEM's step forms from a fiber, handed over. *)
let wait_halo nv p ~pe ~dir ~iter = Engine.handover (Nv.engine nv) (Proto.wait_halo_k p ~pe ~dir ~iter)

let put_boundary nv p ~from_pe ~dir ~src ~src_pos ~dst ~dst_pos ~len ~iter =
  Engine.handover (Nv.engine nv)
    (Proto.put_boundary_k p ~from_pe ~dir ~src ~src_pos ~dst ~dst_pos ~len ~iter)

let quiet nv ~pe = Engine.handover (Nv.engine nv) (Nv.quiet_k nv ~pe)

(* --- Specialize --------------------------------------------------------- *)

let specialize_tests =
  [
    Alcotest.test_case "paper formula on a balanced domain" `Quick (fun () ->
        (* 108 TBs, boundary 2048 elems, inner 2044*2048: formula gives 0,
           clamped to 1 per side. *)
        let s = Specialize.split ~total_blocks:108 ~boundary_elems:2048 ~inner_elems:(2044 * 2048) in
        check_int "boundary" 1 s.Specialize.boundary_blocks;
        check_int "inner" 106 s.Specialize.inner_blocks);
    Alcotest.test_case "boundary-heavy domain gets more blocks" `Quick (fun () ->
        (* inner = 2 planes, boundary = 1 plane each: thirds. *)
        (* 99 * 1000 / 4000 = 24.75, rounded up to 25 per side. *)
        let s = Specialize.split ~total_blocks:99 ~boundary_elems:1000 ~inner_elems:2000 in
        check_int "boundary" 25 s.Specialize.boundary_blocks;
        check_int "inner" 49 s.Specialize.inner_blocks);
    Alcotest.test_case "inner always keeps at least one block" `Quick (fun () ->
        let s = Specialize.split ~total_blocks:3 ~boundary_elems:1_000_000 ~inner_elems:0 in
        check_int "boundary" 1 s.Specialize.boundary_blocks;
        check_int "inner" 1 s.Specialize.inner_blocks);
    Alcotest.test_case "fractions are consistent" `Quick (fun () ->
        let s = Specialize.split ~total_blocks:108 ~boundary_elems:4096 ~inner_elems:100_000 in
        check_float "sum"
          1.0
          ((2.0 *. Specialize.boundary_fraction s) +. Specialize.inner_fraction s));
    Alcotest.test_case "too few blocks rejected" `Quick (fun () ->
        Alcotest.check_raises "small"
          (Invalid_argument "Specialize.split: need at least 3 thread blocks") (fun () ->
            ignore (Specialize.split ~total_blocks:2 ~boundary_elems:1 ~inner_elems:1)));
    Alcotest.test_case "no_boundary gives everything to inner" `Quick (fun () ->
        let s = Specialize.no_boundary ~total_blocks:108 in
        check_int "boundary" 0 s.Specialize.boundary_blocks;
        check_int "inner" 108 s.Specialize.inner_blocks);
  ]

let specialize_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"split partitions all blocks" ~count:300
         QCheck.(triple (int_range 3 512) (int_range 0 100_000) (int_range 0 10_000_000))
         (fun (total, boundary, inner) ->
           let s = Specialize.split ~total_blocks:total ~boundary_elems:boundary
               ~inner_elems:inner
           in
           (2 * s.Specialize.boundary_blocks) + s.Specialize.inner_blocks = total
           && s.Specialize.boundary_blocks >= 1
           && s.Specialize.inner_blocks >= 1));
  ]

(* --- Signal protocol ----------------------------------------------------- *)

let proto_tests =
  [
    Alcotest.test_case "chain neighbours" `Quick (fun () ->
        let _ =
          with_machine ~gpus:3 (fun eng ctx ->
              let nv = Nv.init ctx in
              let p = Proto.create nv ~label:"h" in
              let s = Nv.sym_malloc nv ~label:"x" 8 in
              (* The chain's ends have no outward neighbour, so their waits
                 pass at any iteration. *)
              wait_halo nv p ~pe:0 ~dir:Proto.Up ~iter:5;
              wait_halo nv p ~pe:2 ~dir:Proto.Down ~iter:5;
              check_int "ends never wait" 0 (Time.to_ns (Engine.now eng));
              (* PE 1's Up neighbour is PE 0, whose Down halo it feeds. *)
              let (_ : Engine.process) =
                Engine.spawn eng ~name:"pe1" (fun () ->
                    G.Buffer.fill (Nv.local s ~pe:1) 5.0;
                    put_boundary nv p ~from_pe:1 ~dir:Proto.Up ~src:(Nv.local s ~pe:1)
                      ~src_pos:0 ~dst:s ~dst_pos:4 ~len:4 ~iter:1)
              in
              wait_halo nv p ~pe:0 ~dir:Proto.Down ~iter:2;
              check_float "halo from below" 5.0 (G.Buffer.get (Nv.local s ~pe:0) 4))
        in
        ());
    Alcotest.test_case "iteration 1 needs no signal" `Quick (fun () ->
        let eng, _ =
          with_machine ~gpus:2 (fun _ ctx ->
              let nv = Nv.init ctx in
              let p = Proto.create nv ~label:"h" in
              wait_halo nv p ~pe:0 ~dir:Proto.Down ~iter:1)
        in
        check_int "instant" 0 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "boundary put unblocks the next iteration" `Quick (fun () ->
        let _ =
          with_machine ~gpus:2 (fun eng ctx ->
              let nv = Nv.init ctx in
              let p = Proto.create nv ~label:"h" in
              let s = Nv.sym_malloc nv ~label:"x" 8 in
              let (_ : Engine.process) =
                Engine.spawn eng ~name:"pe0" (fun () ->
                    G.Buffer.fill (Nv.local s ~pe:0) 3.0;
                    put_boundary nv p ~from_pe:0 ~dir:Proto.Down ~src:(Nv.local s ~pe:0)
                      ~src_pos:0 ~dst:s ~dst_pos:4 ~len:4 ~iter:1)
              in
              (* PE 1 waits for the halo of iteration 2 (sent at iteration 1). *)
              wait_halo nv p ~pe:1 ~dir:Proto.Up ~iter:2;
              check_float "halo data" 3.0 (G.Buffer.get (Nv.local s ~pe:1) 4))
        in
        ());
    Alcotest.test_case "puts at the domain edge are no-ops" `Quick (fun () ->
        let _ =
          with_machine ~gpus:2 (fun _ ctx ->
              let nv = Nv.init ctx in
              let p = Proto.create nv ~label:"h" in
              let s = Nv.sym_malloc nv ~label:"x" 4 in
              (* PE 0 has no Up neighbour: the put must be silently skipped. *)
              put_boundary nv p ~from_pe:0 ~dir:Proto.Up ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:4 ~iter:1;
              quiet nv ~pe:0)
        in
        ());
  ]

let proto_failure_tests =
  [
    Alcotest.test_case "a lost signal surfaces as a named deadlock" `Quick (fun () ->
        (* PE 1 waits for a halo PE 0 never sends: the engine's deadlock
           report must name the stuck process and the flag it waits on. *)
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:2 () in
        let nv = Nv.init ctx in
        let p = Proto.create nv ~label:"halo" in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"pe1.comm_top" (fun () ->
              wait_halo nv p ~pe:1 ~dir:Proto.Up ~iter:2)
        in
        match Engine.run eng with
        | () -> Alcotest.fail "expected deadlock"
        | exception Engine.Deadlock names ->
          check (Alcotest.list Alcotest.string) "report"
            [ "pe1.comm_top(#1): flag halo.from_above@pe1 (value 0) (since 0ns) <- waits on gpu0" ]
            names);
    Alcotest.test_case "a signal for the wrong iteration does not unblock" `Quick (fun () ->
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:2 () in
        let nv = Nv.init ctx in
        let p = Proto.create nv ~label:"halo" in
        let s = Nv.sym_malloc nv ~label:"x" 4 in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"pe0" (fun () ->
              (* Sends iteration 1's halo only. *)
              put_boundary nv p ~from_pe:0 ~dir:Proto.Down ~src:(Nv.local s ~pe:0)
                ~src_pos:0 ~dst:s ~dst_pos:0 ~len:4 ~iter:1)
        in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"pe1" (fun () ->
              (* Needs iteration 3's halo (signal value >= 2). *)
              wait_halo nv p ~pe:1 ~dir:Proto.Up ~iter:3)
        in
        match Engine.run eng with
        | () -> Alcotest.fail "expected deadlock"
        | exception Engine.Deadlock _ -> ());
  ]

(* --- Persistent launch --------------------------------------------------- *)

let persistent_tests =
  [
    Alcotest.test_case "run_all launches one kernel per GPU" `Quick (fun () ->
        let launched = ref [] in
        let _ =
          with_machine ~gpus:4 (fun _ ctx ->
              Persistent.run_all ctx ~name:"k" ~blocks:108 ~threads_per_block:1024
                ~roles:(fun pe -> [ ("only", fun _ -> launched := pe :: !launched) ]))
        in
        check (Alcotest.list Alcotest.int) "all devices" [ 0; 1; 2; 3 ]
          (List.sort Int.compare !launched));
    Alcotest.test_case "roles on one device share their grid" `Quick (fun () ->
        let met = ref [] in
        let _ =
          with_machine ~gpus:1 (fun eng ctx ->
              Persistent.run_all ctx ~name:"k" ~blocks:16 ~threads_per_block:1024
                ~roles:(fun _ ->
                  let role tag grid =
                    Engine.delay eng (Time.ns (100 * (tag + 1)));
                    Engine.handover eng (G.Coop.sync_k grid);
                    met := Time.to_ns (Engine.now eng) :: !met
                  in
                  [ ("a", role 0); ("b", role 1) ]))
        in
        match !met with
        | [ a; b ] -> check_int "met at barrier" a b
        | _ -> Alcotest.fail "expected two roles");
    Alcotest.test_case "oversubscription raises through run_all" `Quick (fun () ->
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:1 () in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"main" (fun () ->
              Persistent.run_all ctx ~name:"k" ~blocks:4096 ~threads_per_block:1024
                ~roles:(fun _ -> [ ("r", fun _ -> ()) ]))
        in
        (match Engine.run eng with
        | () -> Alcotest.fail "expected Coop_launch_error"
        | exception G.Runtime.Coop_launch_error _ -> ()));
    Alcotest.test_case "max_blocks equals the co-residency limit" `Quick (fun () ->
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:1 () in
        check_int "limit" 108 (Persistent.max_blocks ctx));
  ]

(* --- Measure -------------------------------------------------------------- *)

let measure_tests =
  [
    Alcotest.test_case "run reports simulated totals" `Quick (fun () ->
        let r =
          Measure.run_env ~label:"x" ~gpus:1 ~iterations:10 (fun ctx ->
              Engine.delay (G.Runtime.engine ctx) (Time.us 100))
        in
        check_int "total" 100_000 (Time.to_ns r.Measure.total);
        check_int "per iter" 10_000 (Time.to_ns r.Measure.per_iter);
        check_int "gpus" 1 r.Measure.gpus);
    Alcotest.test_case "traced run exposes the trace" `Quick (fun () ->
        let o =
          Measure.run ~traced:true
            (Measure.job ~label:"x" ~gpus:2 ~iterations:1 (fun ctx ->
                 let net = G.Runtime.net ctx in
                 Engine.handover (G.Runtime.engine ctx) (fun k ->
                     G.Interconnect.transfer_steps net ~src:(G.Interconnect.Gpu 0)
                       ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device
                       ~bytes:3_000 ~trace_lane:"gpu0.comm" k)))
        in
        let r = o.Measure.result and trace = Option.get o.Measure.trace in
        check_bool "comm recorded" true Time.(r.Measure.comm > Time.zero);
        check_bool "spans" true (E.Trace.spans trace <> []);
        check_int "bytes" 3_000 r.Measure.bytes_moved);
    Alcotest.test_case "speedup formula matches the paper" `Quick (fun () ->
        let mk total =
          Measure.run_env ~label:"x" ~gpus:1 ~iterations:1 (fun ctx ->
              Engine.delay (G.Runtime.engine ctx) total)
        in
        let baseline = mk (Time.us 100) and ours = mk (Time.us 40) in
        check_float "60%" 60.0 (Measure.speedup_pct ~baseline ~ours));
    Alcotest.test_case "pp_table renders all rows" `Quick (fun () ->
        let r =
          Measure.run_env ~label:"row-one" ~gpus:1 ~iterations:1 (fun _ -> ())
        in
        let s = Format.asprintf "%a" (fun fmt -> Measure.pp_table fmt ~header:"H") [ r; r ] in
        check_bool "header" true (Astring.String.is_infix ~affix:"== H ==" s);
        check_bool "row" true (Astring.String.is_infix ~affix:"row-one" s));
  ]

let determinism_tests =
  [
    Alcotest.test_case "identical runs produce identical simulated times" `Quick (fun () ->
        let run () =
          Measure.run_env ~label:"d" ~gpus:4 ~iterations:8 (fun ctx ->
              let nv = Nv.init ctx in
              let p = Proto.create nv ~label:"h" in
              let s = Nv.sym_malloc nv ~label:"x" 64 in
              G.Host.parallel_join ctx ~name:"w" (fun pe ->
                  for t = 1 to 8 do
                    wait_halo nv p ~pe ~dir:Proto.Up ~iter:t;
                    put_boundary nv p ~from_pe:pe ~dir:Proto.Down ~src:(Nv.local s ~pe)
                      ~src_pos:0 ~dst:s ~dst_pos:32 ~len:16 ~iter:t
                  done;
                  quiet nv ~pe))
        in
        let a = run () and b = run () in
        check_int "same total" (Time.to_ns a.Measure.total) (Time.to_ns b.Measure.total);
        check_int "same bytes" a.Measure.bytes_moved b.Measure.bytes_moved);
    Alcotest.test_case "a thousand processes drain deterministically" `Quick (fun () ->
        let run () =
          let eng = Engine.create () in
          let acc = ref 0 in
          for i = 1 to 1000 do
            let (_ : Engine.process) =
              Engine.spawn eng ~name:(string_of_int i) (fun () ->
                  Engine.delay eng (Time.ns ((i * 37) mod 211));
                  acc := (!acc * 31) + i)
            in
            ()
          done;
          Engine.run eng;
          (!acc, Time.to_ns (Engine.now eng))
        in
        let a = run () and b = run () in
        check_bool "identical" true (a = b));
  ]

(* --- Parallel -------------------------------------------------------------- *)

module Parallel = Core.Parallel

exception Boom of int

let parallel_tests =
  [
    Alcotest.test_case "empty list" `Quick (fun () ->
        check (Alcotest.list Alcotest.int) "empty" [] (Parallel.map ~jobs:4 (fun x -> x) []));
    Alcotest.test_case "sequential fallback at one job" `Quick (fun () ->
        check (Alcotest.list Alcotest.int) "same" [ 2; 4; 6 ]
          (Parallel.map ~jobs:1 (fun x -> 2 * x) [ 1; 2; 3 ]));
    Alcotest.test_case "pool larger than the work list" `Quick (fun () ->
        check (Alcotest.list Alcotest.int) "same" [ 1 ] (Parallel.map ~jobs:16 succ [ 0 ]));
    Alcotest.test_case "lowest-index exception wins" `Quick (fun () ->
        let f x = if x >= 10 then raise (Boom x) else x in
        (match Parallel.map ~jobs:4 f [ 1; 12; 3; 11; 5 ] with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom x -> check_int "first failing index" 12 x));
    Alcotest.test_case "parallel simulations match sequential results" `Quick (fun () ->
        (* Each scenario builds a private engine; fanning them across
           domains must not change any simulated time. *)
        let scenario gpus =
          Measure.run_env ~label:"p" ~gpus ~iterations:4 (fun ctx ->
              let eng = G.Runtime.engine ctx in
              G.Host.parallel_join ctx ~name:"w" (fun pe ->
                  for _ = 1 to 4 do
                    Engine.delay eng (Time.ns (100 * (pe + 1)))
                  done))
        in
        let inputs = [ 1; 2; 4; 8; 8; 4; 2; 1 ] in
        let seq = List.map scenario inputs in
        let par = Parallel.map ~jobs:4 scenario inputs in
        List.iter2
          (fun (a : Measure.result) (b : Measure.result) ->
            check_int "total" (Time.to_ns a.Measure.total) (Time.to_ns b.Measure.total))
          seq par);
  ]

let parallel_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"map equals List.map for any pool size" ~count:100
         QCheck.(pair (int_range 1 8) (list small_int))
         (fun (jobs, xs) ->
           Parallel.map ~jobs (fun x -> (x * 37) land 255) xs
           = List.map (fun x -> (x * 37) land 255) xs));
  ]

(* --- Json ------------------------------------------------------------------ *)

module Json = Core.Json

let json_tests =
  [
    Alcotest.test_case "compact scalars" `Quick (fun () ->
        check Alcotest.string "null" "null" (Json.to_string ~indent:0 Json.Null);
        check Alcotest.string "bool" "true" (Json.to_string ~indent:0 (Json.Bool true));
        check Alcotest.string "int" "-3" (Json.to_string ~indent:0 (Json.Int (-3)));
        check Alcotest.string "whole float" "2.0" (Json.to_string ~indent:0 (Json.Float 2.0));
        check Alcotest.string "frac float" "2.5" (Json.to_string ~indent:0 (Json.Float 2.5)));
    Alcotest.test_case "string escaping" `Quick (fun () ->
        check Alcotest.string "quotes" "\"a\\\"b\\\\c\\nd\""
          (Json.to_string ~indent:0 (Json.String "a\"b\\c\nd")));
    Alcotest.test_case "compact containers" `Quick (fun () ->
        check Alcotest.string "obj"
          "{\"xs\":[1,2],\"e\":{}}"
          (Json.to_string ~indent:0
             (Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("e", Json.Obj []) ])));
    Alcotest.test_case "indented output nests" `Quick (fun () ->
        let s = Json.to_string ~indent:2 (Json.Obj [ ("a", Json.List [ Json.Int 1 ]) ]) in
        check_bool "multiline" true (String.contains s '\n');
        check_bool "indented" true (Astring.String.is_infix ~affix:"\n  \"a\"" s));
    Alcotest.test_case "non-finite floats become null" `Quick (fun () ->
        check Alcotest.string "nan" "null" (Json.to_string ~indent:0 (Json.Float Float.nan));
        check Alcotest.string "inf" "null"
          (Json.to_string ~indent:0 (Json.Float Float.infinity)));
  ]

(* --- verification ------------------------------------------------------------ *)

let verify_result cells =
  let t = Core.Verify.create () in
  List.iter (fun (actual, expected) -> Core.Verify.add t ~actual ~expected) cells;
  Core.Verify.result t ~tolerance:1e-9

let verify_tests =
  [
    Alcotest.test_case "an exact match passes with zero error" `Quick (fun () ->
        match verify_result [ (1.5, 1.5); (-2.0, -2.0) ] with
        | Ok worst -> check_float "worst" 0.0 worst
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "a NaN cell fails, wherever it sits" `Quick (fun () ->
        List.iter
          (fun cells ->
            match verify_result cells with
            | Ok _ -> Alcotest.fail "NaN passed verification"
            | Error e -> check_bool e true (Astring.String.is_infix ~affix:"not finite" e))
          [ [ (Float.nan, 1.0) ]; [ (1.0, 1.0); (Float.nan, 0.5); (2.0, 2.0) ] ]);
    Alcotest.test_case "an infinite cell fails" `Quick (fun () ->
        match verify_result [ (1.0, 1.0); (Float.infinity, 3.0) ] with
        | Ok _ -> Alcotest.fail "infinity passed verification"
        | Error e -> check_bool e true (Astring.String.is_infix ~affix:"not finite" e));
    Alcotest.test_case "an error above tolerance fails" `Quick (fun () ->
        match verify_result [ (1.0, 1.1) ] with
        | Ok _ -> Alcotest.fail "0.1 passed a 1e-9 tolerance"
        | Error e -> check_bool e true (Astring.String.is_infix ~affix:"exceeds tolerance" e));
  ]

let () =
  Alcotest.run "core"
    [
      ("specialize", specialize_tests @ specialize_props);
      ("signal_proto", proto_tests @ proto_failure_tests);
      ("persistent", persistent_tests);
      ("measure", measure_tests);
      ("verify", verify_tests);
      ("determinism", determinism_tests);
      ("parallel", parallel_tests @ parallel_props);
      ("json", json_tests);
    ]
