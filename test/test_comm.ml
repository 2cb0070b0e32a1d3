(* Tests for the communication substrates: NVSHMEM PGAS model, host-side MPI,
   peer-to-peer stores, and the overlap metrics (the busy log against the
   span-based reference in [Comm_oracle]). *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Mpi = Cpufree_comm.Mpi
module P2p = Cpufree_comm.P2p
module Collective = Cpufree_comm.Collective
module Oracle = Comm_oracle
module Time = E.Time
module Engine = E.Engine

(* The signal's value at [pe], read through a wait its predicate already
   satisfies. *)
let signal_value nv sig_var ~pe =
  let seen = ref (-1) in
  Nv.signal_wait_until nv ~pe ~sig_var (fun v ->
      seen := v;
      true);
  !seen

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

(* --- NVSHMEM ------------------------------------------------------------ *)

let nvshmem_tests =
  [
    Alcotest.test_case "symmetric allocation has one buffer per PE" `Quick (fun () ->
        let _ =
          with_machine ~gpus:4 (fun _ ctx ->
              let nv = Nv.init ctx in
              check_int "pes" 4 (Nv.n_pes nv);
              let s = Nv.sym_malloc nv ~label:"x" 8 in
              for pe = 0 to 3 do
                let b = Nv.local s ~pe in
                check_int "len" 8 (G.Buffer.length b);
                check_int "device" pe (G.Buffer.device b)
              done)
        in
        ());
    Alcotest.test_case "putmem delivers data after quiet" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 4 in
              G.Buffer.init (Nv.local s ~pe:0) float_of_int;
              Nv.putmem_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:1 ~dst:s
                ~dst_pos:0 ~len:2;
              Nv.quiet nv ~pe:0;
              check_float "moved" 1.0 (G.Buffer.get (Nv.local s ~pe:1) 0);
              check_float "moved2" 2.0 (G.Buffer.get (Nv.local s ~pe:1) 1))
        in
        ());
    Alcotest.test_case "a delivery in flight is named in a stall report" `Quick (fun () ->
        (* The delivery process's name is formatted only when a report
           reads it; it must read as the eager name did. *)
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:2 () in
        let nv = Nv.init ctx in
        let s = Nv.sym_malloc nv ~label:"x" ~phantom:true 1_000_000 in
        let f = Nv.signal_malloc nv ~label:"f" () in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"main" (fun () ->
              Nv.putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:1_000_000 ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:1;
              Nv.signal_wait_ge nv ~pe:1 ~sig_var:f 1)
        in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"probe" (fun () ->
              Engine.delay eng (Time.us 5);
              raise (Engine.Stall (Engine.stall_report eng ~trigger:"probe")))
        in
        match Engine.run eng with
        | () -> Alcotest.fail "expected the probe's stall"
        | exception Engine.Stall r ->
          check (Alcotest.list Alcotest.string) "blocked"
            [
              "main(#1): flag f@pe1 (value 0) (since 350ns)";
              "nvshmem.putmem_signal_nbi.pe0.1(#3): delay (since 350ns)";
            ]
            r.Engine.stall_blocked);
    Alcotest.test_case "putmem_signal raises the flag only after the data" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 4 in
              let f = Nv.signal_malloc nv ~label:"f" () in
              G.Buffer.fill (Nv.local s ~pe:0) 7.0;
              Nv.putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:4 ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:3;
              check_int "not yet" 0 (signal_value nv f ~pe:1);
              Nv.signal_wait_ge nv ~pe:1 ~sig_var:f 3;
              (* Signal delivery implies data delivery. *)
              check_float "data present" 7.0 (G.Buffer.get (Nv.local s ~pe:1) 3))
        in
        ());
    Alcotest.test_case "iput performs a strided scatter" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 9 in
              G.Buffer.init (Nv.local s ~pe:0) float_of_int;
              (* Column 0 of a 3x3 grid into column 2 at the destination. *)
              Nv.iput_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~src_stride:3 ~dst:s ~dst_pos:2 ~dst_stride:3 ~count:3;
              Nv.quiet nv ~pe:0;
              let d = Nv.local s ~pe:1 in
              check_float "r0" 0.0 (G.Buffer.get d 2);
              check_float "r1" 3.0 (G.Buffer.get d 5);
              check_float "r2" 6.0 (G.Buffer.get d 8))
        in
        ());
    Alcotest.test_case "p writes a single element synchronously" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 2 in
              Nv.p nv ~from_pe:0 ~to_pe:1 ~value:9.5 ~dst:s ~dst_pos:1;
              check_float "written" 9.5 (G.Buffer.get (Nv.local s ~pe:1) 1))
        in
        ());
    Alcotest.test_case "signal_op orders after outstanding puts" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 1024 in
              let f = Nv.signal_malloc nv ~label:"f" () in
              G.Buffer.fill (Nv.local s ~pe:0) 2.0;
              Nv.putmem_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0 ~dst:s
                ~dst_pos:0 ~len:1024;
              Nv.signal_op_remote nv ~from_pe:0 ~to_pe:1 ~sig_var:f ~sig_op:Nv.Signal_add
                ~sig_value:1;
              (* signal_op fences: by the time it lands, the put landed. *)
              check_float "fenced" 2.0 (G.Buffer.get (Nv.local s ~pe:1) 1023);
              check_int "sig" 1 (signal_value nv f ~pe:1))
        in
        ());
    Alcotest.test_case "pending tracks outstanding deliveries" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              let s = Nv.sym_malloc nv ~label:"x" 1024 in
              Nv.putmem_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0 ~dst:s
                ~dst_pos:0 ~len:1024;
              check_int "one pending" 1 (Nv.pending nv ~pe:0);
              Nv.quiet nv ~pe:0;
              check_int "drained" 0 (Nv.pending nv ~pe:0))
        in
        ());
    Alcotest.test_case "barrier_all joins every PE" `Quick (fun () ->
        let released = ref [] in
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:3 () in
        let nv = Nv.init ctx in
        for pe = 0 to 2 do
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"pe" (fun () ->
                Engine.delay eng (Time.ns (pe * 100));
                Nv.barrier_all nv ~pe;
                released := Time.to_ns (Engine.now eng) :: !released)
          in
          ()
        done;
        Engine.run eng;
        (match !released with
        | [ a; b; c ] ->
          check_int "same" a b;
          check_int "same2" b c
        | _ -> Alcotest.fail "expected 3 releases"));
    Alcotest.test_case "invalid PE rejected" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              Alcotest.check_raises "bad pe" (Invalid_argument "Nvshmem.quiet: no such PE 7")
                (fun () -> Nv.quiet nv ~pe:7))
        in
        ());
    Alcotest.test_case "signal wait with a custom predicate" `Quick (fun () ->
        let _ =
          with_machine (fun eng ctx ->
              let nv = Nv.init ctx in
              let f = Nv.signal_malloc nv ~label:"f" () in
              let (_ : Engine.process) =
                Engine.spawn eng ~name:"setter" (fun () ->
                    Engine.delay eng (Time.ns 10);
                    Nv.signal_op_remote nv ~from_pe:1 ~to_pe:0 ~sig_var:f ~sig_op:Nv.Signal_set
                      ~sig_value:42)
              in
              Nv.signal_wait_until nv ~pe:0 ~sig_var:f (fun v -> v = 42))
        in
        ());
  ]

(* --- MPI ---------------------------------------------------------------- *)

let mpi_tests =
  [
    Alcotest.test_case "send-then-recv matches" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 4 in
              let b = G.Buffer.create ~device:1 ~label:"b" 4 in
              G.Buffer.init a float_of_int;
              let s = Mpi.isend mpi ~rank:0 ~dst:1 ~tag:5 (Mpi.contiguous a ~pos:0 ~len:4) in
              let r = Mpi.irecv mpi ~rank:1 ~src:0 ~tag:5 (Mpi.contiguous b ~pos:0 ~len:4) in
              Mpi.waitall mpi [ s; r ];
              check_float "data" 3.0 (G.Buffer.get b 3))
        in
        ());
    Alcotest.test_case "recv posted first also matches" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 2 in
              let b = G.Buffer.create ~device:1 ~label:"b" 2 in
              G.Buffer.fill a 5.0;
              let r = Mpi.irecv mpi ~rank:1 ~src:0 ~tag:1 (Mpi.contiguous b ~pos:0 ~len:2) in
              let s = Mpi.isend mpi ~rank:0 ~dst:1 ~tag:1 (Mpi.contiguous a ~pos:0 ~len:2) in
              Mpi.waitall mpi [ s; r ];
              check_float "data" 5.0 (G.Buffer.get b 1))
        in
        ());
    Alcotest.test_case "different tags do not match" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 1 in
              let b = G.Buffer.create ~device:1 ~label:"b" 1 in
              let (_ : Mpi.request) =
                Mpi.isend mpi ~rank:0 ~dst:1 ~tag:1 (Mpi.contiguous a ~pos:0 ~len:1)
              in
              let r = Mpi.irecv mpi ~rank:1 ~src:0 ~tag:2 (Mpi.contiguous b ~pos:0 ~len:1) in
              check_bool "unmatched" false (Mpi.test r))
        in
        ());
    Alcotest.test_case "type_vector sends a strided column" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let mpi = Mpi.init ctx in
              (* 3x3 grids: column 2 of rank 0 into column 0 of rank 1 *)
              let a = G.Buffer.create ~device:0 ~label:"a" 9 in
              let b = G.Buffer.create ~device:1 ~label:"b" 9 in
              G.Buffer.init a float_of_int;
              let s =
                Mpi.isend mpi ~rank:0 ~dst:1 ~tag:0 (Mpi.type_vector a ~pos:2 ~stride:3 ~count:3)
              in
              let r =
                Mpi.irecv mpi ~rank:1 ~src:0 ~tag:0 (Mpi.type_vector b ~pos:0 ~stride:3 ~count:3)
              in
              Mpi.waitall mpi [ s; r ];
              check_float "c0" 2.0 (G.Buffer.get b 0);
              check_float "c1" 5.0 (G.Buffer.get b 3);
              check_float "c2" 8.0 (G.Buffer.get b 6))
        in
        ());
    Alcotest.test_case "wait blocks until the transfer lands" `Quick (fun () ->
        let eng, _ =
          with_machine (fun eng ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 1 in
              let b = G.Buffer.create ~device:1 ~label:"b" 1 in
              let (_ : Engine.process) =
                Engine.spawn eng ~name:"sender" (fun () ->
                    Engine.delay eng (Time.us 50);
                    let s =
                      Mpi.isend mpi ~rank:0 ~dst:1 ~tag:0 (Mpi.contiguous a ~pos:0 ~len:1)
                    in
                    Mpi.wait mpi s)
              in
              let r = Mpi.irecv mpi ~rank:1 ~src:0 ~tag:0 (Mpi.contiguous b ~pos:0 ~len:1) in
              Mpi.wait mpi r;
              check_bool "after sender" true Time.(Engine.now eng >= Time.us 50))
        in
        ignore eng);
    Alcotest.test_case "mpi barrier joins ranks" `Quick (fun () ->
        let _ =
          with_machine ~gpus:2 (fun _ ctx ->
              let mpi = Mpi.init ctx in
              G.Host.parallel_join ctx ~name:"b" (fun rank -> Mpi.barrier mpi ~rank))
        in
        ());
    Alcotest.test_case "rank bounds checked" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 1 in
              Alcotest.check_raises "bad" (Invalid_argument "Mpi.isend: no such rank 9")
                (fun () ->
                  ignore (Mpi.isend mpi ~rank:0 ~dst:9 ~tag:0 (Mpi.contiguous a ~pos:0 ~len:1))))
        in
        ());
  ]

let host_path_tests =
  [
    Alcotest.test_case "host-device transfers ride PCIe" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch:G.Arch.a100_hgx ~num_gpus:2 in
        (* 25 kB at 25 B/ns = 1000 ns serialization over PCIe, far slower
           than the same payload over NVLink. *)
        let pcie =
          Fabric_probe.transfer_time eng net ~src:G.Interconnect.Host
            ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_host ~bytes:25_000
        in
        let nvlink =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 1)
            ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_host ~bytes:25_000
        in
        check_bool "slower" true Time.(nvlink < pcie));
    Alcotest.test_case "strided MPI messages stage through the host" `Quick (fun () ->
        let time_of region_of =
          let eng = Engine.create () in
          let ctx = G.Runtime.create eng ~num_gpus:2 () in
          let mpi = Mpi.init ctx in
          let a = G.Buffer.create ~device:0 ~label:"a" 4096 in
          let b = G.Buffer.create ~device:1 ~label:"b" 4096 in
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"main" (fun () ->
                let s = Mpi.isend mpi ~rank:0 ~dst:1 ~tag:0 (region_of a) in
                let r = Mpi.irecv mpi ~rank:1 ~src:0 ~tag:0 (region_of b) in
                Mpi.waitall mpi [ s; r ])
          in
          Engine.run eng;
          Engine.now eng
        in
        let contiguous = time_of (fun buf -> Mpi.contiguous buf ~pos:0 ~len:512) in
        let strided = time_of (fun buf -> Mpi.type_vector buf ~pos:0 ~stride:8 ~count:512) in
        check_bool "staging is much slower" true
          (Time.to_sec_float strided > 3.0 *. Time.to_sec_float contiguous));
  ]

(* --- P2P ---------------------------------------------------------------- *)

let p2p_tests =
  [
    Alcotest.test_case "copy moves data and takes time" `Quick (fun () ->
        let eng, _ =
          with_machine (fun _ ctx ->
              let a = G.Buffer.create ~device:0 ~label:"a" 4 in
              let b = G.Buffer.create ~device:1 ~label:"b" 4 in
              G.Buffer.init a float_of_int;
              P2p.copy ctx ~from_dev:0 ~src:a ~src_pos:0 ~dst:b ~dst_pos:0 ~len:4)
        in
        check_bool "time passed" true Time.(Engine.now eng > Time.zero));
    Alcotest.test_case "single store" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let b = G.Buffer.create ~device:1 ~label:"b" 2 in
              P2p.store ctx ~from_dev:0 ~dst:b ~dst_pos:1 4.5;
              check_float "stored" 4.5 (G.Buffer.get b 1))
        in
        ());
  ]

(* --- Metrics ------------------------------------------------------------ *)

let metrics_tests =
  [
    Alcotest.test_case "intersect of disjoint is empty" `Quick (fun () ->
        let iv a b = (Time.ns a, Time.ns b) in
        let x = E.Intervals.merge [ iv 0 5 ] and y = E.Intervals.merge [ iv 6 9 ] in
        check_int "none" 0 (List.length (E.Intervals.intersect x y)));
    Alcotest.test_case "overlap ratio from a synthetic trace" `Quick (fun () ->
        let t = E.Trace.create () in
        E.Trace.add t ~lane:"g0" ~label:"k" ~kind:E.Trace.Compute ~t0:(Time.ns 0)
          ~t1:(Time.ns 100);
        E.Trace.add t ~lane:"g0.comm" ~label:"x" ~kind:E.Trace.Communication ~t0:(Time.ns 50)
          ~t1:(Time.ns 150);
        (* 100 ns of comm, 50 of it under compute. *)
        check_float "ratio" 0.5 (Oracle.overlap_ratio t);
        check_int "comm" 100 (Time.to_ns (Oracle.comm_time t));
        check_int "compute" 100 (Time.to_ns (Oracle.compute_time t)));
    Alcotest.test_case "overlap ratio is zero without communication" `Quick (fun () ->
        let t = E.Trace.create () in
        E.Trace.add t ~lane:"g0" ~label:"k" ~kind:E.Trace.Compute ~t0:(Time.ns 0)
          ~t1:(Time.ns 10);
        check_float "zero" 0.0 (Oracle.overlap_ratio t));
    Alcotest.test_case "comm fraction" `Quick (fun () ->
        let t = E.Trace.create () in
        E.Trace.add t ~lane:"g0.comm" ~label:"x" ~kind:E.Trace.Communication ~t0:(Time.ns 0)
          ~t1:(Time.ns 25);
        check_float "quarter" 0.25 (Oracle.comm_fraction t ~total:(Time.ns 100)));
  ]

(* --- Collective ---------------------------------------------------------- *)

let run_on_all_pes ~gpus f =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:gpus () in
  let nv = Nv.init ctx in
  let coll = Collective.create nv ~label:"c" in
  for pe = 0 to gpus - 1 do
    let (_ : Engine.process) = Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () -> f coll pe) in
    ()
  done;
  Engine.run eng

(* One allreduce of [g + 1] per GPU, issued by the PEs themselves
   ([Device]) or by one host thread ([Host]). Returns the engine and the
   runtime after the run, and every GPU's sum. *)
type driver = Device | Host

let allreduce_run ?env ~driver ~algorithm ~gpus () =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ?env ~num_gpus:gpus () in
  let values = Array.init gpus (fun g -> float_of_int (g + 1)) in
  let results = Array.make gpus nan in
  (match driver with
  | Device ->
    let coll = Collective.create ~algorithm (Nv.init ctx) ~label:"coll" in
    for pe = 0 to gpus - 1 do
      let (_ : Engine.process) =
        Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () ->
            results.(pe) <- Collective.allreduce_sum coll ~pe values.(pe))
      in
      ()
    done
  | Host ->
    let (_ : Engine.process) =
      Engine.spawn eng ~name:"host" (fun () ->
          let sums = Collective.host_allreduce_sum ctx ~algorithm ~label:"coll" values in
          Array.blit sums 0 results 0 gpus)
    in
    ());
  Engine.run eng;
  (eng, ctx, results)

(* Pinned values (tree on the device since the partitioned-engine code
   base): every algorithm under either driver must execute exactly these
   events and end at this simulated time. *)
let event_count_case (algorithm, driver, events, final_ns) =
  let name =
    Printf.sprintf "64-GPU %s%s allreduce on fat-tree:4:2:8 keeps its event count"
      (Collective.algorithm_to_string algorithm)
      (match driver with Device -> "" | Host -> " host")
  in
  Alcotest.test_case name `Quick (fun () ->
      let gpus = 64 in
      let topology =
        match Cpufree_machine.Topology.spec_of_string "fat-tree:4:2:8" with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      let env = Cpufree_obs.Sim_env.make ~topology () in
      let eng, _, results = allreduce_run ~env ~driver ~algorithm ~gpus () in
      Array.iter (check_float "sum" (float_of_int (gpus * (gpus + 1) / 2))) results;
      check_int "events" events (Engine.events_executed eng);
      check_int "final time (ns)" final_ns (Time.to_ns (Engine.now eng)))

(* Both drivers walk one schedule: for every algorithm and size, the PEs'
   signaled puts and the host's memcpys move the same bytes in the same
   number of transfers. *)
let same_schedule_test =
  Alcotest.test_case "device and host drivers move the same bytes in the same transfers" `Quick
    (fun () ->
      List.iter
        (fun algorithm ->
          for gpus = 1 to 40 do
            let moved driver =
              let _, ctx, _ = allreduce_run ~driver ~algorithm ~gpus () in
              let net = G.Runtime.net ctx in
              (G.Interconnect.bytes_moved net, G.Interconnect.transfers net)
            in
            let (db, dt) = moved Device and (hb, ht) = moved Host in
            if db <> hb || dt <> ht then
              Alcotest.failf "%s at %d GPUs: device %d B in %d transfers, host %d B in %d"
                (Collective.algorithm_to_string algorithm)
                gpus db dt hb ht
          done)
        [ Collective.Dense; Collective.Ring; Collective.Tree; Collective.Doubling ])

let event_count_tests =
  List.map event_count_case
    [
      (Collective.Dense, Device, 16242, 32800);
      (Collective.Ring, Device, 24256, 356000);
      (Collective.Tree, Device, 820, 91442);
      (Collective.Doubling, Device, 2368, 45744);
      (Collective.Dense, Host, 8257, 7673600);
      (Collective.Ring, Host, 16193, 33465600);
      (Collective.Tree, Host, 1212, 5221810);
      (Collective.Doubling, Host, 1601, 3187200);
    ]

let collective_tests =
  event_count_tests
  @ same_schedule_test
  :: [
    Alcotest.test_case "allreduce_sum sums every PE's contribution" `Quick (fun () ->
        let results = Array.make 4 nan in
        run_on_all_pes ~gpus:4 (fun coll pe ->
            results.(pe) <- Collective.allreduce_sum coll ~pe (float_of_int (pe + 1)));
        Array.iter (fun v -> check_float "sum" 10.0 v) results);
    Alcotest.test_case "rounds are reusable without interference" `Quick (fun () ->
        let seen = Array.make 2 [] in
        run_on_all_pes ~gpus:2 (fun coll pe ->
            for round = 1 to 5 do
              let s = Collective.allreduce_sum coll ~pe (float_of_int (round * (pe + 1))) in
              seen.(pe) <- s :: seen.(pe)
            done;
            check_int "round count" 5 (Collective.rounds coll ~pe));
        (* Round r contributes r*1 + r*2 = 3r. *)
        Array.iter
          (fun l ->
            check (Alcotest.list (Alcotest.float 1e-9)) "per-round sums"
              [ 3.0; 6.0; 9.0; 12.0; 15.0 ] (List.rev l))
          seen);
    Alcotest.test_case "skewed arrival still agrees" `Quick (fun () ->
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:3 () in
        let nv = Nv.init ctx in
        let coll = Collective.create nv ~label:"c" in
        let results = Array.make 3 nan in
        for pe = 0 to 2 do
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"pe" (fun () ->
                Engine.delay eng (Time.us (pe * 40));
                results.(pe) <- Collective.allreduce_sum coll ~pe 1.0)
          in
          ()
        done;
        Engine.run eng;
        Array.iter (fun v -> check_float "sum" 3.0 v) results);
    Alcotest.test_case "single PE degenerates to identity" `Quick (fun () ->
        run_on_all_pes ~gpus:1 (fun coll pe ->
            check_float "self" 7.5 (Collective.allreduce_sum coll ~pe 7.5)));
  ]

(* Every schedule is a position-preserving allgather followed by the same
   in-order local reduce, so each must reproduce the dense result bit for
   bit — including the non-power-of-two counts that exercise the tree
   remainder handling and the doubling pre/post folds. *)
let algo_run ~algorithm ~gpus =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:gpus () in
  let nv = Nv.init ctx in
  let coll = Collective.create ~algorithm nv ~label:"c" in
  let results = Array.make gpus nan in
  for pe = 0 to gpus - 1 do
    let (_ : Engine.process) =
      Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () ->
          results.(pe) <- Collective.allreduce_sum coll ~pe (float_of_int ((pe * 3) + 1)))
    in
    ()
  done;
  Engine.run eng;
  results

let algorithm_tests =
  [
    Alcotest.test_case "every algorithm matches dense bit for bit" `Quick (fun () ->
        List.iter
          (fun gpus ->
            let dense = algo_run ~algorithm:Collective.Dense ~gpus in
            List.iter
              (fun algorithm ->
                if algo_run ~algorithm ~gpus <> dense then
                  Alcotest.failf "%s differs from dense at %d PEs"
                    (Collective.algorithm_to_string algorithm)
                    gpus)
              [ Collective.Ring; Collective.Tree; Collective.Doubling ])
          [ 1; 2; 3; 5; 6; 8; 13 ]);
    Alcotest.test_case "algorithm names round-trip" `Quick (fun () ->
        List.iter
          (fun a ->
            match Collective.algorithm_of_string (Collective.algorithm_to_string a) with
            | Ok b when b = a -> ()
            | _ -> Alcotest.failf "%s does not round-trip" (Collective.algorithm_to_string a))
          [ Collective.Dense; Collective.Ring; Collective.Tree; Collective.Doubling ];
        check_bool "junk rejected" true
          (match Collective.algorithm_of_string "butterfly" with Error _ -> true | Ok _ -> false));
    Alcotest.test_case "host baselines reduce to the same sums" `Quick (fun () ->
        List.iter
          (fun (algorithm, gpus) ->
            let eng = Engine.create () in
            let ctx = G.Runtime.create eng ~num_gpus:gpus () in
            let out = ref [||] in
            let (_ : Engine.process) =
              Engine.spawn eng ~name:"host" (fun () ->
                  out :=
                    Collective.host_allreduce_sum ctx ~algorithm ~label:"hb"
                      (Array.init gpus (fun g -> float_of_int (g + 1))))
            in
            Engine.run eng;
            let expected = float_of_int (gpus * (gpus + 1) / 2) in
            Array.iteri
              (fun g v ->
                if v <> expected then
                  Alcotest.failf "host %s at %d PEs: gpu %d got %f, want %f"
                    (Collective.algorithm_to_string algorithm)
                    gpus g v expected)
              !out;
            check_bool "host run takes simulated time" true Time.(Engine.now eng > zero))
          [
            (Collective.Dense, 4);
            (Collective.Ring, 5);
            (Collective.Tree, 5);
            (Collective.Tree, 8);
            (Collective.Doubling, 5);
            (Collective.Doubling, 8);
          ]);
  ]

(* --- Fabric: lazy pair tables -------------------------------------------- *)

let fabric_tests =
  [
    Alcotest.test_case "pair memo fills per pair used, not eagerly" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch:G.Arch.a100_hgx ~num_gpus:8 in
        check_int "nothing routed at creation" 0 (G.Interconnect.pairs_resolved net);
        ignore (G.Interconnect.min_gpu_wire_latency net : Time.t);
        ignore (G.Interconnect.max_gpu_wire_latency net : Time.t);
        check_int "bounds come from the topology, not the memo" 0
          (G.Interconnect.pairs_resolved net);
        let t01 =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:4096
        in
        check_int "one transfer routes one pair" 1 (G.Interconnect.pairs_resolved net);
        let again =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:4096
        in
        check_bool "repeat hits the memo" true (Time.equal t01 again);
        check_int "still one pair" 1 (G.Interconnect.pairs_resolved net);
        ignore
          (G.Interconnect.wire_latency net ~src:(G.Interconnect.Gpu 2) ~dst:G.Interconnect.Host
            : Time.t);
        check_int "distinct pair adds one entry" 2 (G.Interconnect.pairs_resolved net));
  ]

let comm_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"busy log measures comm and overlap as the span trace does"
         ~count:300
         QCheck.(list (triple (int_bound 3) (int_bound 400) (int_bound 120)))
         (fun spans ->
           (* Every third span again: duplicates on top of the nested,
              unsorted and zero-length ones the generator draws. *)
           let spans = spans @ List.filteri (fun i _ -> i mod 3 = 0) spans in
           let trace = E.Trace.create () and log = E.Intervals.Log.create () in
           List.iteri
             (fun i (k, a, d) ->
               let t0 = Time.ns a and t1 = Time.ns (a + d) in
               let kind =
                 match k with
                 | 0 -> E.Trace.Compute
                 | 1 -> E.Trace.Communication
                 | 2 -> E.Trace.Api
                 | _ -> E.Trace.Synchronization
               in
               E.Trace.add trace ~lane:(Printf.sprintf "gpu%d" (i mod 3)) ~label:"s" ~kind ~t0 ~t1;
               match kind with
               | E.Trace.Compute -> E.Intervals.Log.compute log ~t0 ~t1
               | E.Trace.Communication -> E.Intervals.Log.comm log ~t0 ~t1
               | _ -> ())
             spans;
           (* The same intervals in the order an engine logs them: by end. *)
           let by_end = E.Intervals.Log.create () in
           List.iter
             (fun (k, a, d) ->
               let t0 = Time.ns a and t1 = Time.ns (a + d) in
               if k = 0 then E.Intervals.Log.compute by_end ~t0 ~t1
               else if k = 1 then E.Intervals.Log.comm by_end ~t0 ~t1)
             (List.stable_sort (fun (_, a, d) (_, b, e) -> Int.compare (a + d) (b + e)) spans);
           let comm, overlap = E.Intervals.Log.comm_and_overlap log in
           let compute = E.Intervals.Log.compute_total log in
           Time.equal comm (Oracle.comm_time trace)
           && Float.equal overlap (Oracle.overlap_ratio trace)
           && Time.equal compute (Oracle.compute_time trace)
           && E.Intervals.Log.comm_and_overlap by_end = (comm, overlap)
           && Time.equal (E.Intervals.Log.compute_total by_end) compute));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge is idempotent" ~count:100
         QCheck.(list (pair (int_bound 500) (int_bound 500)))
         (fun pairs ->
           let ivs = List.map (fun (a, d) -> (Time.ns a, Time.ns (a + d))) pairs in
           let once = E.Intervals.merge ivs in
           E.Intervals.merge once = once));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"allreduce_sum equals the arithmetic sum" ~count:30
         QCheck.(pair (int_range 1 6) (list_of_size Gen.(return 6) (float_bound_exclusive 100.0)))
         (fun (gpus, values) ->
           let values = Array.of_list values in
           let results = Array.make gpus nan in
           run_on_all_pes ~gpus (fun coll pe ->
               results.(pe) <- Collective.allreduce_sum coll ~pe values.(pe));
           let expected = ref 0.0 in
           for pe = 0 to gpus - 1 do
             expected := !expected +. values.(pe)
           done;
           Array.for_all (fun v -> Float.abs (v -. !expected) < 1e-9) results));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"transfer time is monotone in size" ~count:100
         QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
         (fun (a, b) ->
           let eng = Engine.create () in
           let net = G.Interconnect.create eng ~arch:G.Arch.a100_hgx ~num_gpus:2 in
           let t bytes =
             Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
               ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes
           in
           let lo = min a b and hi = max a b in
           Time.(t lo <= t hi)));
  ]

(* --- Asynchronous deliveries, pinned -------------------------------------- *)

(* One put from PE 0 to PE 1 under a forced fault fate, with trace flows on
   or off. A run reports what a change to how deliveries are driven must
   leave alone: the engine's event count and final clock, the comm time in
   its busy log, the trace's span and flow counts, and — for a signalled
   put — the destination's data and the clock read by the signal waiter's
   predicate at the instant it first sees the signal (so data landing after
   its signal would read 0). *)
module Topo = Cpufree_machine.Topology

type put_kind = Signal_put | Plain_put | Strided_put

type delivery_run = {
  events : int;
  clock_ns : int;
  comm_ns : int;
  spans : int;
  flows : int;
  seen : float;  (* destination data when the signal (or the fence) is observed *)
  seen_ns : int;
}

module Fault = Cpufree_fault.Fault
module Env = Cpufree_obs.Sim_env

let fate_spec = function
  | `Deliver -> None
  | `Delayed -> Some "delay=1.0@3000"
  | `Dropped -> Some "drop=1.0"

let fault_env =
  Option.map (fun s -> Env.make ~faults:(Result.get_ok (Fault.of_string s)) ~fault_seed:3 ())

let run_delivery ~kind ~fate ~flows =
  let trace = if flows then Some (E.Trace.create ~flows:true ()) else None in
  let eng = Engine.create ?trace () in
  let ctx = G.Runtime.create eng ?env:(fault_env (fate_spec fate)) ~num_gpus:2 () in
  let seen = ref nan and seen_ns = ref (-1) in
  let (_ : Engine.process) =
    Engine.spawn eng ~name:"main" (fun () ->
        let nv = Nv.init ctx in
        let s = Nv.sym_malloc nv ~label:"x" 64 in
        let src = Nv.local s ~pe:0 and dst = Nv.local s ~pe:1 in
        G.Buffer.fill src 7.0;
        let observe () =
          seen := G.Buffer.get dst 0;
          seen_ns := Time.to_ns (Engine.now eng)
        in
        match kind with
        | Signal_put ->
          let f = Nv.signal_malloc nv ~label:"f" () in
          Nv.putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src ~src_pos:0 ~dst:s ~dst_pos:0 ~len:64
            ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:1;
          Nv.signal_wait_until nv ~pe:1 ~sig_var:f (fun v ->
              if v >= 1 && !seen_ns < 0 then observe ();
              v >= 1)
        | Plain_put ->
          Nv.putmem_nbi nv ~from_pe:0 ~to_pe:1 ~src ~src_pos:0 ~dst:s ~dst_pos:0 ~len:64;
          Nv.quiet nv ~pe:0;
          observe ()
        | Strided_put ->
          Nv.iput_nbi nv ~from_pe:0 ~to_pe:1 ~src ~src_pos:0 ~src_stride:2 ~dst:s ~dst_pos:0
            ~dst_stride:2 ~count:32;
          Nv.quiet nv ~pe:0;
          observe ())
  in
  Engine.run eng;
  let comm, _ = E.Intervals.Log.comm_and_overlap (Engine.busy eng) in
  {
    events = Engine.events_executed eng;
    clock_ns = Time.to_ns (Engine.now eng);
    comm_ns = Time.to_ns comm;
    spans = (match trace with Some tr -> List.length (E.Trace.spans tr) | None -> 0);
    flows = (match trace with Some tr -> List.length (E.Trace.sorted_flows tr) | None -> 0);
    seen = !seen;
    seen_ns = !seen_ns;
  }

let kind_name = function
  | Signal_put -> "putmem_signal_nbi"
  | Plain_put -> "putmem_nbi"
  | Strided_put -> "iput_nbi"

let fate_name = function `Deliver -> "Deliver" | `Delayed -> "Delayed" | `Dropped -> "Dropped"

(* What the fiber-per-delivery engine produced. Each row: kind, fate, flows
   on; then events, final clock, comm ns, spans, flows, and the clock at
   which the data was seen (always the source's 7.0). *)
let delivery_expected =
  [
    (Signal_put, `Deliver, false, (7, 5001, 1751, 0, 0, 3001));
    (Signal_put, `Deliver, true, (7, 5001, 2651, 2, 1, 3001));
    (Signal_put, `Delayed, false, (9, 25350, 1751, 0, 0, 6816));
    (Signal_put, `Delayed, true, (9, 25350, 2651, 2, 1, 6816));
    (Signal_put, `Dropped, false, (8, 30001, 1751, 0, 0, 28001));
    (Signal_put, `Dropped, true, (8, 30001, 2651, 4, 1, 28001));
    (Plain_put, `Deliver, false, (5, 2101, 1751, 0, 0, 2101));
    (Plain_put, `Deliver, true, (5, 2101, 1751, 2, 1, 2101));
    (Plain_put, `Delayed, false, (6, 5916, 1751, 0, 0, 5916));
    (Plain_put, `Delayed, true, (6, 5916, 1751, 2, 1, 5916));
    (Plain_put, `Dropped, false, (5, 2101, 1751, 0, 0, 2101));
    (Plain_put, `Dropped, true, (5, 2101, 1751, 4, 1, 2101));
    (Strided_put, `Deliver, false, (6, 2132, 1750, 0, 0, 2132));
    (Strided_put, `Deliver, true, (6, 2132, 1782, 2, 1, 2132));
    (Strided_put, `Delayed, false, (7, 5947, 1750, 0, 0, 5947));
    (Strided_put, `Delayed, true, (7, 5947, 1782, 2, 1, 5947));
    (Strided_put, `Dropped, false, (6, 2132, 1750, 0, 0, 2132));
    (Strided_put, `Dropped, true, (6, 2132, 1782, 4, 1, 2132));
  ]

(* A run with a probe that raises a stall report 5 us in, while a
   delivery is still in flight: the report must name it. *)
let in_flight_report ~spec puts =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ?env:(fault_env spec) ~num_gpus:2 () in
  let nv = Nv.init ctx in
  let s = Nv.sym_malloc nv ~label:"x" ~phantom:true 1_000_000 in
  let f = Nv.signal_malloc nv ~label:"f" () in
  let (_ : Engine.process) = Engine.spawn eng ~name:"main" (fun () -> puts nv s f) in
  let (_ : Engine.process) =
    Engine.spawn eng ~name:"probe" (fun () ->
        Engine.delay eng (Time.us 5);
        raise (Engine.Stall (Engine.stall_report eng ~trigger:"probe")))
  in
  match Engine.run eng with
  | () -> Alcotest.fail "expected the probe's stall"
  | exception Engine.Stall r -> r.Engine.stall_blocked

let delivery_tests =
  List.map
    (fun (kind, fate, flows, (events, clock_ns, comm_ns, spans, n_flows, seen_ns)) ->
      Alcotest.test_case
        (Printf.sprintf "%s %s flows=%b matches the pinned run" (kind_name kind) (fate_name fate)
           flows)
        `Quick (fun () ->
          let got = run_delivery ~kind ~fate ~flows in
          check_int "events" events got.events;
          check_int "final clock" clock_ns got.clock_ns;
          check_int "comm ns" comm_ns got.comm_ns;
          check_int "spans" spans got.spans;
          check_int "flows" n_flows got.flows;
          check_float "data at signal" 7.0 got.seen;
          check_int "data seen at" seen_ns got.seen_ns))
    delivery_expected
  @ [
      Alcotest.test_case "a delayed delivery in flight is named in a stall report" `Quick
        (fun () ->
          check (Alcotest.list Alcotest.string) "blocked"
            [
              "main(#1): flag f@pe1 (value 0, deadline 25.35us) (since 350ns)";
              "nvshmem.putmem_signal_nbi.pe0.1(#3): delay (since 350ns)";
            ]
            (in_flight_report ~spec:(Some "delay=1.0@30000") (fun nv s f ->
                 Nv.putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                   ~dst:s ~dst_pos:0 ~len:16 ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:1;
                 Nv.signal_wait_ge nv ~pe:1 ~sig_var:f 1)));
      Alcotest.test_case "an iput in flight is named in a stall report" `Quick (fun () ->
          check (Alcotest.list Alcotest.string) "blocked"
            [
              "main(#1): flag pe0.pending (value 1) (since 350ns)";
              "nvshmem.iput_nbi.pe0.1(#3): delay (since 350ns)";
            ]
            (in_flight_report ~spec:None (fun nv s _ ->
                 Nv.iput_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                   ~src_stride:2 ~dst:s ~dst_pos:0 ~dst_stride:2 ~count:100_000;
                 Nv.quiet nv ~pe:0)));
      Alcotest.test_case "a partitioned route raised in a delivery leaves run" `Quick (fun () ->
          (* The route is resolved when the delivery books the fabric, inside
             the delivery's first step: the exception must leave [Engine.run]
             with the delivery finished and the clock where it was. *)
          let eng = Engine.create () in
          let ctx = G.Runtime.create eng ~env:(Env.make ~topology:Topo.Ring ()) ~num_gpus:4 () in
          let topo = G.Interconnect.topology (G.Runtime.net ctx) in
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"main" (fun () ->
                let nv = Nv.init ctx in
                let s = Nv.sym_malloc nv ~label:"x" 4 in
                Engine.delay eng (Time.ns 100);
                Topo.fail_link topo ~src:"gpu0" ~dst:"gpu1";
                Topo.fail_link topo ~src:"gpu1" ~dst:"gpu2";
                Nv.putmem_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0 ~dst:s
                  ~dst_pos:0 ~len:4;
                Nv.quiet nv ~pe:0)
          in
          match Engine.run eng with
          | () -> Alcotest.fail "expected Partitioned"
          | exception Topo.Partitioned msg ->
            check Alcotest.string "diagnosis"
              "Topology.route_ports: no route from gpu0 to gpu1: network partitioned by fail-stop \
               events (4 dead links, 0 dead vertexes)"
              msg;
            check_int "events" 4 (Engine.events_executed eng);
            check_int "clock" 450 (Time.to_ns (Engine.now eng));
            check_int "live processes" 1 (Engine.registered_processes eng);
            check (Alcotest.list Alcotest.string) "blocked"
              [ "main(#1): flag pe0.pending (value 1) (since 450ns)" ]
              (Engine.stall_report eng ~trigger:"partitioned").Engine.stall_blocked);
    ]

let () =
  Alcotest.run "comm"
    [
      ("nvshmem", nvshmem_tests);
      ("mpi", mpi_tests);
      ("host-path", host_path_tests);
      ("p2p", p2p_tests);
      ("metrics", metrics_tests);
      ("collective", collective_tests @ algorithm_tests @ comm_props);
      ("fabric", fabric_tests);
      ("delivery", delivery_tests);
    ]
