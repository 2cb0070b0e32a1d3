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

let signal_wait_until nv ~pe ~sig_var pred =
  in_fiber nv (Nv.signal_wait_until_k nv ~pe ~sig_var pred)

let signal_wait_ge nv ?expect_from ~pe ~sig_var v =
  in_fiber nv (Nv.signal_wait_ge_k nv ?expect_from ~pe ~sig_var v)

let quiet nv ~pe = in_fiber nv (Nv.quiet_k nv ~pe)

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

(* A step process named [name]. *)
let proc eng ?group name body = Engine.spawn_callbacks eng ~name_of:(fun () -> name) ?group body

(* A probe that raises a stall report [at] in, naming every blocked process. *)
let stall_probe eng at =
  let (_ : Engine.process) =
    proc eng "probe" (fun () ->
        Engine.after eng at (fun () ->
            raise (Engine.Stall (Engine.stall_report eng ~trigger:"probe"))))
  in
  ()

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
              in_fiber nv
                (Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:1 ~dst:s
                 ~dst_pos:0 ~len:2);
              quiet nv ~pe:0;
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
              putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:1_000_000 ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:1;
              signal_wait_ge nv ~pe:1 ~sig_var:f 1)
        in
        stall_probe eng (Time.us 5);
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
              putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~dst:s ~dst_pos:0 ~len:4 ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:3;
              check_int "not yet" 0 (signal_value nv f ~pe:1);
              signal_wait_ge nv ~pe:1 ~sig_var:f 3;
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
              in_fiber nv (Nv.iput_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                ~src_stride:3 ~dst:s ~dst_pos:2 ~dst_stride:3 ~count:3);
              quiet nv ~pe:0;
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
              in_fiber nv (Nv.p_k nv ~from_pe:0 ~to_pe:1 ~value:9.5 ~dst:s ~dst_pos:1);
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
              in_fiber nv
                (Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0 ~dst:s
                 ~dst_pos:0 ~len:1024);
              in_fiber nv
                (Nv.signal_op_remote_k nv ~from_pe:0 ~to_pe:1 ~sig_var:f ~sig_op:Nv.Signal_add
                 ~sig_value:1);
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
              in_fiber nv
                (Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0 ~dst:s
                 ~dst_pos:0 ~len:1024);
              check_int "one pending" 1 (Nv.pending nv ~pe:0);
              quiet nv ~pe:0;
              check_int "drained" 0 (Nv.pending nv ~pe:0))
        in
        ());
    Alcotest.test_case "invalid PE rejected" `Quick (fun () ->
        let _ =
          with_machine (fun _ ctx ->
              let nv = Nv.init ctx in
              Alcotest.check_raises "bad pe" (Invalid_argument "Nvshmem.quiet: no such PE 7")
                (fun () -> quiet nv ~pe:7))
        in
        ());
    Alcotest.test_case "signal wait with a custom predicate" `Quick (fun () ->
        let _ =
          with_machine (fun eng ctx ->
              let nv = Nv.init ctx in
              let f = Nv.signal_malloc nv ~label:"f" () in
              let (_ : Engine.process) =
                proc eng "setter" (fun () ->
                    Engine.after eng (Time.ns 10) (fun () ->
                        Nv.signal_op_remote_k nv ~from_pe:1 ~to_pe:0 ~sig_var:f
                          ~sig_op:Nv.Signal_set ~sig_value:42 ignore))
              in
              signal_wait_until nv ~pe:0 ~sig_var:f (fun v -> v = 42))
        in
        ());
  ]

(* --- MPI ---------------------------------------------------------------- *)

(* The MPI calls are step forms; a fiber reaches them through a handover
   and gets the request the call returned once it continues. *)
let returning eng call =
  let req = ref None in
  Engine.handover eng (fun k -> req := Some (call k));
  Option.get !req

let isend eng mpi ~rank ~dst ~tag reg = returning eng (Mpi.isend_k mpi ~rank ~dst ~tag reg)
let irecv eng mpi ~rank ~src ~tag reg = returning eng (Mpi.irecv_k mpi ~rank ~src ~tag reg)
let waitall eng mpi reqs = Engine.handover eng (Mpi.waitall_k mpi reqs)

let mpi_tests =
  [
    Alcotest.test_case "send-then-recv matches" `Quick (fun () ->
        let _ =
          with_machine (fun eng ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 4 in
              let b = G.Buffer.create ~device:1 ~label:"b" 4 in
              G.Buffer.init a float_of_int;
              let s = isend eng mpi ~rank:0 ~dst:1 ~tag:5 (Mpi.contiguous a ~pos:0 ~len:4) in
              let r = irecv eng mpi ~rank:1 ~src:0 ~tag:5 (Mpi.contiguous b ~pos:0 ~len:4) in
              waitall eng mpi [ s; r ];
              check_float "data" 3.0 (G.Buffer.get b 3))
        in
        ());
    Alcotest.test_case "recv posted first also matches" `Quick (fun () ->
        let _ =
          with_machine (fun eng ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 2 in
              let b = G.Buffer.create ~device:1 ~label:"b" 2 in
              G.Buffer.fill a 5.0;
              let r = irecv eng mpi ~rank:1 ~src:0 ~tag:1 (Mpi.contiguous b ~pos:0 ~len:2) in
              let s = isend eng mpi ~rank:0 ~dst:1 ~tag:1 (Mpi.contiguous a ~pos:0 ~len:2) in
              waitall eng mpi [ s; r ];
              check_float "data" 5.0 (G.Buffer.get b 1))
        in
        ());
    Alcotest.test_case "different tags do not match" `Quick (fun () ->
        let b = G.Buffer.create ~device:1 ~label:"b" 1 in
        let _, ctx =
          with_machine (fun eng ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 1 in
              G.Buffer.fill a 1.0;
              let (_ : Mpi.request) =
                isend eng mpi ~rank:0 ~dst:1 ~tag:1 (Mpi.contiguous a ~pos:0 ~len:1)
              in
              let (_ : Mpi.request) =
                irecv eng mpi ~rank:1 ~src:0 ~tag:2 (Mpi.contiguous b ~pos:0 ~len:1)
              in
              ())
        in
        (* Once the run is over, no message has moved. *)
        check_bool "unmatched" false
          (G.Interconnect.transfers (G.Runtime.net ctx) > 0 || G.Buffer.get b 0 = 1.0));
    Alcotest.test_case "type_vector sends a strided column" `Quick (fun () ->
        let _ =
          with_machine (fun eng ctx ->
              let mpi = Mpi.init ctx in
              (* 3x3 grids: column 2 of rank 0 into column 0 of rank 1 *)
              let a = G.Buffer.create ~device:0 ~label:"a" 9 in
              let b = G.Buffer.create ~device:1 ~label:"b" 9 in
              G.Buffer.init a float_of_int;
              let s =
                isend eng mpi ~rank:0 ~dst:1 ~tag:0 { Mpi.buf = a; pos = 2; stride = 3; count = 3 }
              in
              let r =
                irecv eng mpi ~rank:1 ~src:0 ~tag:0 { Mpi.buf = b; pos = 0; stride = 3; count = 3 }
              in
              waitall eng mpi [ s; r ];
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
                proc eng "sender" (fun () ->
                    Engine.after eng (Time.us 50) (fun () ->
                        let s = ref None in
                        let wait () = Mpi.waitall_k mpi (Option.to_list !s) ignore in
                        s :=
                          Some
                            (Mpi.isend_k mpi ~rank:0 ~dst:1 ~tag:0 (Mpi.contiguous a ~pos:0 ~len:1)
                               wait)))
              in
              let r = irecv eng mpi ~rank:1 ~src:0 ~tag:0 (Mpi.contiguous b ~pos:0 ~len:1) in
              waitall eng mpi [ r ];
              check_bool "after sender" true Time.(Engine.now eng >= Time.us 50))
        in
        ignore eng);
    Alcotest.test_case "rank bounds checked" `Quick (fun () ->
        let _ =
          with_machine (fun eng ctx ->
              let mpi = Mpi.init ctx in
              let a = G.Buffer.create ~device:0 ~label:"a" 1 in
              Alcotest.check_raises "bad" (Invalid_argument "Mpi.isend: no such rank 9")
                (fun () ->
                  ignore (isend eng mpi ~rank:0 ~dst:9 ~tag:0 (Mpi.contiguous a ~pos:0 ~len:1))))
        in
        ());
    Alcotest.test_case "unmatched requests name their flags in a deadlock report" `Quick
      (fun () ->
        (* A request's flag is named only when a report reads it; the words
           are the eagerly named flag's. The ranks are processes of steps. *)
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:3 () in
        let mpi = Mpi.init ctx in
        let a = G.Buffer.create ~device:0 ~label:"a" 1 in
        let rank r f =
          ignore
            (Engine.spawn_callbacks eng ~name_of:(fun () -> Printf.sprintf "rank%d" r) f
              : Engine.process)
        in
        let then_wait call =
          let req = ref None in
          req := Some (call (fun () -> Mpi.waitall_k mpi [ Option.get !req ] ignore))
        in
        rank 0 (fun () ->
            then_wait (Mpi.isend_k mpi ~rank:0 ~dst:1 ~tag:1 (Mpi.contiguous a ~pos:0 ~len:1)));
        rank 1 (fun () ->
            then_wait (Mpi.irecv_k mpi ~rank:1 ~src:2 ~tag:1 (Mpi.contiguous a ~pos:0 ~len:1)));
        match Engine.run eng with
        | () -> Alcotest.fail "expected Deadlock"
        | exception Engine.Deadlock lines ->
          check (Alcotest.list Alcotest.string) "report"
            [
              "rank0(#1): flag mpi.send.1 (value 0) (since 15.00us)";
              "rank1(#2): flag mpi.recv.2 (value 0) (since 15.00us)";
            ]
            lines);
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
                let s = isend eng mpi ~rank:0 ~dst:1 ~tag:0 (region_of a) in
                let r = irecv eng mpi ~rank:1 ~src:0 ~tag:0 (region_of b) in
                waitall eng mpi [ s; r ])
          in
          Engine.run eng;
          Engine.now eng
        in
        let contiguous = time_of (fun buf -> Mpi.contiguous buf ~pos:0 ~len:512) in
        let strided = time_of (fun buf -> { Mpi.buf; pos = 0; stride = 8; count = 512 }) in
        check_bool "staging is much slower" true
          (Time.to_sec_float strided > 3.0 *. Time.to_sec_float contiguous));
  ]

(* --- P2P ---------------------------------------------------------------- *)

let p2p_tests =
  [
    Alcotest.test_case "copy moves data and takes time" `Quick (fun () ->
        let eng, _ =
          with_machine (fun eng ctx ->
              let a = G.Buffer.create ~device:0 ~label:"a" 4 in
              let b = G.Buffer.create ~device:1 ~label:"b" 4 in
              G.Buffer.init a float_of_int;
              Engine.handover eng
                (P2p.copy_k ctx ~from_dev:0 ~src:a ~src_pos:0 ~dst:b ~dst_pos:0 ~len:4);
              check_float "moved" 3.0 (G.Buffer.get b 3))
        in
        check_bool "time passed" true Time.(Engine.now eng > Time.zero));
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
            proc eng "pe" (fun () ->
                Engine.after eng (Time.us (pe * 40)) (fun () ->
                    Collective.allreduce_sum_k coll ~pe 1.0 (fun v -> results.(pe) <- v)))
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
        check_int "the bound comes from the topology, not the memo" 0
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
          putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src ~src_pos:0 ~dst:s ~dst_pos:0 ~len:64
            ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:1;
          signal_wait_until nv ~pe:1 ~sig_var:f (fun v ->
              if v >= 1 && !seen_ns < 0 then observe ();
              v >= 1)
        | Plain_put ->
          in_fiber nv
            (Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src ~src_pos:0 ~dst:s ~dst_pos:0 ~len:64);
          quiet nv ~pe:0;
          observe ()
        | Strided_put ->
          in_fiber nv
            (Nv.iput_nbi_k nv ~from_pe:0 ~to_pe:1 ~src ~src_pos:0 ~src_stride:2 ~dst:s ~dst_pos:0
             ~dst_stride:2 ~count:32);
          quiet nv ~pe:0;
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
  stall_probe eng (Time.us 5);
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
                 putmem_signal_nbi nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                   ~dst:s ~dst_pos:0 ~len:16 ~sig_var:f ~sig_op:Nv.Signal_set ~sig_value:1;
                 signal_wait_ge nv ~pe:1 ~sig_var:f 1)));
      Alcotest.test_case "an iput in flight is named in a stall report" `Quick (fun () ->
          check (Alcotest.list Alcotest.string) "blocked"
            [
              "main(#1): flag pe0.pending (value 1) (since 350ns)";
              "nvshmem.iput_nbi.pe0.1(#3): delay (since 350ns)";
            ]
            (in_flight_report ~spec:None (fun nv s _ ->
                 in_fiber nv
                   (Nv.iput_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                    ~src_stride:2 ~dst:s ~dst_pos:0 ~dst_stride:2 ~count:100_000);
                 quiet nv ~pe:0)));
      Alcotest.test_case "a partitioned route raised in a delivery leaves run" `Quick (fun () ->
          (* The route is resolved when the delivery books the fabric, inside
             the delivery's first step: the exception must leave [Engine.run]
             with the delivery finished and the clock where it was. *)
          let eng = Engine.create () in
          let ctx = G.Runtime.create eng ~env:(Env.make ~topology:Topo.Ring ()) ~num_gpus:4 () in
          let topo = G.Interconnect.topology (G.Runtime.net ctx) in
          let (_ : Engine.process) =
            proc eng "main" (fun () ->
                let nv = Nv.init ctx in
                let s = Nv.sym_malloc nv ~label:"x" 4 in
                Engine.after eng (Time.ns 100) (fun () ->
                    Topo.fail_link topo ~src:"gpu0" ~dst:"gpu1";
                    Topo.fail_link topo ~src:"gpu1" ~dst:"gpu2";
                    Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0
                      ~dst:s ~dst_pos:0 ~len:4 (fun () -> Nv.quiet_k nv ~pe:0 ignore)))
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

(* --- Allreduce drivers as step chains ---------------------------------------- *)

(* Both drivers walk their schedule as one chain of steps, here from step
   processes, with every event and its order as when they ran as fibers:
   the totals and final clocks below are the fiber drivers' own. *)

let run_device ?faults ?(skip = -1) algorithm n =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ?env:(fault_env faults) ~num_gpus:n () in
  let coll = Collective.create ~algorithm (Nv.init ctx) ~label:"coll" in
  let res = Array.make n nan in
  for pe = 0 to n - 1 do
    if pe <> skip then
      ignore
        (proc eng (Printf.sprintf "pe%d" pe) ~group:(G.Runtime.gpu_group ctx pe) (fun () ->
             Collective.allreduce_sum_k coll ~pe (float_of_int (pe + 1)) (fun v -> res.(pe) <- v))
          : Engine.process)
  done;
  (eng, ctx, res)

let run_host algorithm n =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:n () in
  let res = ref [||] in
  ignore
    (proc eng "host" ~group:"host" (fun () ->
         Collective.host_allreduce_sum_k ctx ~algorithm ~label:"coll"
           (Array.init n (fun g -> float_of_int (g + 1)))
           (fun v -> res := v))
      : Engine.process);
  (eng, res)

(* A perfbench-shaped cluster cell at [gpus] GPUs on [topology]: one
   allreduce of [g + 1] per GPU from step processes, set up but not run:
   the engine, the runtime, every GPU's sum and the clock at which each
   GPU got it, once run. *)
let cluster_cell ~topology ~algorithm ~driver ~gpus =
  let topology =
    match Cpufree_machine.Topology.spec_of_string topology with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~env:(Env.make ~topology ()) ~num_gpus:gpus () in
  let res = Array.make gpus nan and at = Array.make gpus (-1) in
  let values = Array.init gpus (fun g -> float_of_int (g + 1)) in
  let got pe v =
    res.(pe) <- v;
    at.(pe) <- Time.to_ns (Engine.now eng)
  in
  (match driver with
  | Device ->
    let coll = Collective.create ~algorithm (Nv.init ctx) ~label:"coll" in
    for pe = 0 to gpus - 1 do
      ignore
        (proc eng (Printf.sprintf "pe%d" pe) (fun () ->
             Collective.allreduce_sum_k coll ~pe values.(pe) (got pe))
          : Engine.process)
    done
  | Host ->
    ignore
      (proc eng "host" (fun () ->
           Collective.host_allreduce_sum_k ctx ~algorithm ~label:"coll" values
             (Array.iteri got))
        : Engine.process));
  (eng, ctx, res, at)

(* One row per cell: its events, final clock, resolved pairs, whether
   every GPU holds n(n+1)/2, and a digest of the clocks at which the GPUs
   got their sums. *)
let cluster_row ~topology ~algorithm ~driver =
  let gpus = 64 in
  let eng, ctx, res, at = cluster_cell ~topology ~algorithm ~driver ~gpus in
  Engine.run eng;
  let sum = float_of_int (gpus * (gpus + 1) / 2) in
  let at = Array.to_list at |> List.map string_of_int |> String.concat "," in
  Printf.sprintf "%s %s %s events=%d ns=%d pairs=%d sums=%s done=%s" topology
    (Collective.algorithm_to_string algorithm)
    (match driver with Device -> "device" | Host -> "host")
    (Engine.events_executed eng)
    (Time.to_ns (Engine.now eng))
    (G.Interconnect.pairs_resolved (G.Runtime.net ctx))
    (if Array.for_all (Float.equal sum) res then "ok" else "wrong")
    (String.sub (Digest.to_hex (Digest.string at)) 0 8)

let cluster_recorded =
  [
    "fat-tree:4:2:8 ring device events=24256 ns=356000 pairs=64 sums=ok done=aed5603a";
    "fat-tree:4:2:8 ring host events=16193 ns=33465600 pairs=64 sums=ok done=e5062bf6";
    "fat-tree:4:2:8 tree device events=820 ns=91442 pairs=126 sums=ok done=ceaa7fda";
    "fat-tree:4:2:8 tree host events=1212 ns=5221810 pairs=126 sums=ok done=bad80314";
    "fat-tree:4:2:8 doubling device events=2368 ns=45744 pairs=384 sums=ok done=9c5a3cf6";
    "fat-tree:4:2:8 doubling host events=1601 ns=3187200 pairs=384 sums=ok done=59f7a94e";
    "dragonfly:4:4:2:8 ring device events=24256 ns=356000 pairs=64 sums=ok done=aed5603a";
    "dragonfly:4:4:2:8 ring host events=16193 ns=33465600 pairs=64 sums=ok done=e5062bf6";
    "dragonfly:4:4:2:8 tree device events=820 ns=91442 pairs=126 sums=ok done=ceaa7fda";
    "dragonfly:4:4:2:8 tree host events=1212 ns=5221810 pairs=126 sums=ok done=bad80314";
    "dragonfly:4:4:2:8 doubling device events=2368 ns=45744 pairs=384 sums=ok done=9c5a3cf6";
    "dragonfly:4:4:2:8 doubling host events=1601 ns=3187200 pairs=384 sums=ok done=59f7a94e";
    "dgx:8 ring device events=24256 ns=353400 pairs=64 sums=ok done=f14c5a37";
    "dgx:8 ring host events=16193 ns=33465600 pairs=64 sums=ok done=e5062bf6";
    "dgx:8 tree device events=820 ns=88842 pairs=126 sums=ok done=6a63b91b";
    "dgx:8 tree host events=1212 ns=5220510 pairs=126 sums=ok done=8707e0dc";
    "dgx:8 doubling device events=2368 ns=44444 pairs=384 sums=ok done=41bf3351";
    "dgx:8 doubling host events=1601 ns=3187200 pairs=384 sums=ok done=59f7a94e";
  ]

(* Minor words allocated per event around [Engine.run] of a 64-GPU ring
   cell on fat-tree:4:2:8. *)
let ring_words_per_event driver =
  let eng, _, _, _ =
    cluster_cell ~topology:"fat-tree:4:2:8" ~algorithm:Collective.Ring ~driver ~gpus:64
  in
  let w0 = Gc.minor_words () in
  Engine.run eng;
  (Gc.minor_words () -. w0) /. float_of_int (Engine.events_executed eng)

let step_tests =
  [
    (* Each bound lies midway between the words per event before the
       put, copy and wait paths were made allocation-lean (device 37.4,
       host 28.1) and after (device 18.0, host 13.6): compiler drift stays
       under it, a return of the old allocation does not. *)
    Alcotest.test_case "64-GPU ring cells allocate under their bounds per event" `Quick (fun () ->
        List.iter
          (fun (driver, name, bound) ->
            let w = ring_words_per_event driver in
            if w > bound then
              Alcotest.failf "%s ring: %.2f minor words per event, bound %.1f" name w bound)
          [ (Device, "device", 27.7); (Host, "host", 20.9) ]);
    Alcotest.test_case "cluster allreduce cells keep their events, clock, pairs and sums" `Quick
      (fun () ->
        let rows =
          List.concat_map
            (fun topology ->
              List.concat_map
                (fun algorithm ->
                  List.map
                    (fun driver -> cluster_row ~topology ~algorithm ~driver)
                    [ Device; Host ])
                [ Collective.Ring; Collective.Tree; Collective.Doubling ])
            [ "fat-tree:4:2:8"; "dragonfly:4:4:2:8"; "dgx:8" ]
        in
        check Alcotest.(list string) "cells" cluster_recorded rows);
    Alcotest.test_case "allreduce drivers keep every event and resume no fiber" `Quick (fun () ->
        List.iter
          (fun (algorithm, n, device_events, device_ns, host_events, host_ns) ->
            let name what =
              Printf.sprintf "%s n=%d %s" (Collective.algorithm_to_string algorithm) n what
            in
            let sum = float_of_int (n * (n + 1) / 2) in
            let eng, _, res = run_device algorithm n in
            Engine.run eng;
            check_int (name "device events") device_events (Engine.events_executed eng);
            check_int (name "device clock") device_ns (Time.to_ns (Engine.now eng));
            Array.iter (check_float (name "device sum") sum) res;
            (* Every event is a step, the PEs' starts included. *)
            check_int (name "device steps") device_events (Engine.steps_run eng);
            let eng, res = run_host algorithm n in
            Engine.run eng;
            check_int (name "host events") host_events (Engine.events_executed eng);
            check_int (name "host clock") host_ns (Time.to_ns (Engine.now eng));
            Array.iter (check_float (name "host sum") sum) !res;
            (* The host's start, each stream daemon's and every copy are
               steps. *)
            check_int (name "host steps") host_events (Engine.steps_run eng))
          [
            (Collective.Ring, 5, 125, 20000, 86, 166000);
            (Collective.Ring, 8, 344, 35000, 233, 464800);
            (Collective.Tree, 5, 51, 20350, 60, 209400);
            (Collective.Tree, 8, 92, 30000, 99, 337200);
            (Collective.Doubling, 5, 73, 15700, 62, 153400);
            (Collective.Doubling, 8, 152, 15000, 105, 199200);
          ]);
    Alcotest.test_case "a PE blocked in a step wait reports as a fiber did" `Quick (fun () ->
        let eng, _, _ = run_device ~skip:2 Collective.Ring 5 in
        let lines =
          match Engine.run eng with
          | () -> Alcotest.fail "expected Deadlock"
          | exception Engine.Deadlock lines -> lines
        in
        check (Alcotest.list Alcotest.string) "deadlock"
          [
            "pe0(#1) [gpu0]: flag coll.arrived@pe0 (value 2) (since 10.35us)";
            "pe1(#2) [gpu1]: flag coll.arrived@pe1 (value 3) (since 15.35us)";
            "pe3(#3) [gpu3]: flag coll.arrived@pe3 (value 0) (since 350ns)";
            "pe4(#4) [gpu4]: flag coll.arrived@pe4 (value 1) (since 5.35us)";
          ]
          lines;
        check_int "events" 56 (Engine.events_executed eng);
        check_int "live" 4 (Engine.registered_processes eng));
    Alcotest.test_case "a stall under dropped deliveries reports as a fiber did" `Quick (fun () ->
        let eng, _, _ = run_device ~faults:"drop=0.5" ~skip:2 Collective.Ring 5 in
        let r =
          match Engine.run eng with
          | () -> Alcotest.fail "expected Stall"
          | exception Engine.Stall r -> r
        in
        check (Alcotest.list Alcotest.string) "stall"
          [
            "stall at 3.175ms: signal coll.ph0.bank1@pe3: 6 retries exhausted after 3.175ms \
             (value 0)";
            "pe0(#1) [gpu0]: flag coll.ph2.bank1@pe0 (value 0, deadline 3.210ms) (since 1.610ms)";
            "pe1(#2) [gpu1]: flag coll.ph3.bank1@pe1 (value 0, deadline 3.236ms) (since 1.636ms)";
            "pe4(#4) [gpu4]: flag coll.ph1.bank1@pe4 (value 0, deadline 3.205ms) (since 1.605ms)";
          ]
          (Engine.stall_lines r);
        check_int "events" 107 (Engine.events_executed eng);
        (* The waiter that gave up finished once; the other three wait on. *)
        check_int "live" 3 (Engine.registered_processes eng));
    Alcotest.test_case "lost deliveries replay inside the waiter's step chain" `Quick (fun () ->
        List.iter
          (fun (algorithm, sums, events, ns, dropped, resent, retried) ->
            let name what =
              Printf.sprintf "%s %s" (Collective.algorithm_to_string algorithm) what
            in
            let eng, ctx, res = run_device ~faults:"drop=0.3" algorithm 5 in
            Engine.run eng;
            check_int (name "events") events (Engine.events_executed eng);
            check_int (name "clock") ns (Time.to_ns (Engine.now eng));
            check (Alcotest.array (Alcotest.float 0.0)) (name "sums") sums res;
            let st = Fault.stats (Option.get (G.Runtime.faults ctx)) in
            check_int (name "dropped") dropped st.Fault.dropped;
            check_int (name "resent") resent st.Fault.resent;
            check_int (name "retried") retried st.Fault.retried)
          [
            (Collective.Tree, Array.make 5 15.0, 66, 80000, 4, 4, 8);
            (Collective.Doubling, Array.make 5 15.0, 82, 85000, 6, 6, 7);
            (* Ring rides one signal per phase under faults: a shared
               counter let a later phase's delivery meet the threshold of a
               wait whose own delivery was dropped, and the PE forwarded a
               stale slot (sums 11, 11, 11, 15, 14). *)
            (Collective.Ring, Array.make 5 15.0, 134, 115350, 7, 7, 9);
          ]);
    Alcotest.test_case "every algorithm sums right over rounds under reordered deliveries" `Quick
      (fun () ->
        (* Dropped and delayed deliveries land after later ones: without
           one signal per ring phase and one set of signals per bank, a
           peer's next phase or next round met an earlier wait. *)
        List.iter
          (fun algorithm ->
            List.iter
              (fun (n, seed) ->
                let eng = Engine.create () in
                let env =
                  Env.make
                    ~faults:(Result.get_ok (Fault.of_string "drop=0.3,delay=0.3@2000"))
                    ~fault_seed:seed ()
                in
                let ctx = G.Runtime.create eng ~env ~num_gpus:n () in
                let coll = Collective.create ~algorithm (Nv.init ctx) ~label:"coll" in
                let wrong = ref [] in
                for pe = 0 to n - 1 do
                  let rec round r =
                    if r <= 4 then
                      Collective.allreduce_sum_k coll ~pe (float_of_int (pe + r)) (fun sum ->
                          if sum <> float_of_int ((n * (n - 1) / 2) + (n * r)) then
                            wrong := (pe, r) :: !wrong;
                          round (r + 1))
                  in
                  ignore
                    (proc eng (Printf.sprintf "pe%d" pe) ~group:(G.Runtime.gpu_group ctx pe)
                       (fun () -> round 1)
                      : Engine.process)
                done;
                Engine.run eng;
                check_int
                  (Printf.sprintf "%s n=%d seed=%d wrong sums"
                     (Collective.algorithm_to_string algorithm) n seed)
                  0 (List.length !wrong))
              [ (3, 0); (3, 1); (5, 2); (5, 3); (8, 4) ])
          [ Collective.Dense; Collective.Ring; Collective.Tree; Collective.Doubling ]);
  ]

(* --- Step forms against their fiber forms' events ------------------------------ *)

(* Each [_k] form runs the operation its fiber form did and differs only
   in how it waits, so a driver written with it must push what the fiber
   form pushed: the same count, the same clock, the same spans in the same
   order, the same instants at which the driver's marks ran, and the same
   flags and buffers at the end. A case runs its driver on PE 0 as a
   process of steps, beside an observer fiber on PE 1, and compares against
   what the fiber-form driver recorded ([forms_recorded]). *)
type forms_case = {
  fc_name : string;
  fc_faults : string option;
  fc_steps : Nv.t -> Nv.sym -> Nv.signal -> mark:(string -> unit) -> (unit -> unit) -> unit;
  fc_observe : Nv.t -> Nv.signal -> unit;  (* the observer's wait, on PE 1 *)
}

let run_form case =
  let trace = E.Trace.create ~flows:true () in
  let eng = Engine.create ~trace () in
  let ctx = G.Runtime.create eng ?env:(fault_env case.fc_faults) ~num_gpus:2 () in
  let nv = Nv.init ctx in
  let s = Nv.sym_malloc nv ~label:"x" 64 in
  let f = Nv.signal_malloc nv ~label:"f" () in
  G.Buffer.init (Nv.local s ~pe:0) float_of_int;
  let marks = ref [] in
  let mark what = marks := Printf.sprintf "%s@%d" what (Time.to_ns (Engine.now eng)) :: !marks in
  let (_ : Engine.process) =
    Engine.spawn_callbacks eng ~name_of:(fun () -> "pe0") (fun () ->
        case.fc_steps nv s f ~mark (fun () -> mark "end"))
  in
  let (_ : Engine.process) =
    Engine.spawn eng ~name:"pe1" (fun () ->
        case.fc_observe nv f;
        mark "observed")
  in
  Engine.run eng;
  let span (sp : E.Trace.span) =
    Printf.sprintf "%s %s %d-%d" sp.E.Trace.lane sp.E.Trace.label (Time.to_ns sp.E.Trace.t0)
      (Time.to_ns sp.E.Trace.t1)
  in
  let stats =
    match G.Runtime.faults ctx with
    | None -> "no faults"
    | Some plan ->
      let st = Fault.stats plan in
      Printf.sprintf "dropped %d delayed %d resent %d retried %d" st.Fault.dropped
        st.Fault.delayed st.Fault.resent st.Fault.retried
  in
  let x1 = Nv.local s ~pe:1 in
  [
    Printf.sprintf "events %d" (Engine.events_executed eng);
    Printf.sprintf "clock %d" (Time.to_ns (Engine.now eng));
    Printf.sprintf "pending %d %d" (Nv.pending nv ~pe:0) (Nv.pending nv ~pe:1);
    Printf.sprintf "f@pe1 %d" (signal_value nv f ~pe:1);
    "x@pe1 " ^ String.concat "," (List.init 64 (fun i -> Printf.sprintf "%g" (G.Buffer.get x1 i)));
    stats;
  ]
  @ List.rev !marks
  @ List.map span (E.Trace.spans trace)

let no_observer _ _ = ()
let observe_signal nv f = signal_wait_ge nv ~pe:1 ~sig_var:f 1

let put_k nv s ~len =
  Nv.putmem_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:0 ~dst:s ~dst_pos:0 ~len

let iput_k nv s =
  Nv.iput_nbi_k nv ~from_pe:0 ~to_pe:1 ~src:(Nv.local s ~pe:0) ~src_pos:1 ~src_stride:2 ~dst:s
    ~dst_pos:32 ~dst_stride:1 ~count:16

let signal_k nv f =
  Nv.signal_op_remote_k nv ~from_pe:0 ~to_pe:1 ~sig_var:f ~sig_op:Nv.Signal_add ~sig_value:1

(* Puts, a strided put and single-element puts, fenced by a quiet or by a
   signal op (which quiets first), with and without deliveries in flight. *)
let forms_cases faults =
  let name what = match faults with None -> what | Some f -> what ^ " under " ^ f in
  [
    {
      fc_name = name "putmem_nbi_k then quiet_k";
      fc_faults = faults;
      fc_steps =
        (fun nv s _ ~mark k ->
          put_k nv s ~len:16 (fun () ->
              mark "issued";
              put_k nv s ~len:8 (fun () -> Nv.quiet_k nv ~pe:0 k)));
      fc_observe = no_observer;
    };
    {
      fc_name = name "iput_nbi_k then quiet_k";
      fc_faults = faults;
      fc_steps =
        (fun nv s _ ~mark k ->
          iput_k nv s (fun () ->
              mark "issued";
              Nv.quiet_k nv ~pe:0 k));
      fc_observe = no_observer;
    };
    {
      fc_name = name "p_k";
      fc_faults = faults;
      fc_steps =
        (fun nv s _ ~mark k ->
          Nv.p_k nv ~from_pe:0 ~to_pe:1 ~value:3.5 ~dst:s ~dst_pos:5 (fun () ->
              mark "stored";
              Nv.p_k nv ~from_pe:0 ~to_pe:1 ~value:4.5 ~dst:s ~dst_pos:6 k));
      fc_observe = no_observer;
    };
    {
      fc_name = name "quiet_k and signal_op_remote_k with nothing outstanding";
      fc_faults = faults;
      fc_steps =
        (fun nv _ f ~mark k ->
          Nv.quiet_k nv ~pe:0 (fun () ->
              mark "quiet";
              signal_k nv f k));
      fc_observe = observe_signal;
    };
    {
      fc_name = name "signal_op_remote_k after puts";
      fc_faults = faults;
      fc_steps =
        (fun nv s f ~mark k ->
          put_k nv s ~len:16 (fun () ->
              iput_k nv s (fun () ->
                  mark "issued";
                  signal_k nv f k)));
      fc_observe = observe_signal;
    };
  ]

(* What each case's fiber form pushed, recorded before the fiber forms
   were removed: the step form must push the same. *)
let forms_recorded =
  [
    ( "putmem_nbi_k then quiet_k",
      [
        "events 9";
        "clock 2450";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "no faults";
        "observed@0";
        "issued@350";
        "end@2450";
        "gpu0.nvshmem putmem_nbi 350-2100";
        "gpu1.nvshmem deliver:putmem_nbi 350-2100";
        "gpu0.nvshmem putmem_nbi 700-2450";
        "gpu1.nvshmem deliver:putmem_nbi 700-2450";
      ] );
    ( "iput_nbi_k then quiet_k",
      [
        "events 7";
        "clock 2116";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "no faults";
        "observed@0";
        "issued@350";
        "end@2116";
        "gpu0.nvshmem iput 366-2116";
        "gpu1.nvshmem deliver:iput 350-2116";
      ] );
    ( "p_k",
      [
        "events 6";
        "clock 4200";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,0,0,0,0,3.5,4.5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "no faults";
        "observed@0";
        "stored@2100";
        "end@4200";
        "gpu0.nvshmem p 350-2100";
        "gpu0.nvshmem p 2450-4200";
      ] );
    ( "quiet_k and signal_op_remote_k with nothing outstanding",
      [
        "events 5";
        "clock 4650";
        "pending 0 0";
        "f@pe1 1";
        "x@pe1 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "no faults";
        "quiet@0";
        "end@2650";
        "observed@4650";
      ] );
    ( "signal_op_remote_k after puts",
      [
        "events 13";
        "clock 7116";
        "pending 0 0";
        "f@pe1 1";
        "x@pe1 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "no faults";
        "issued@700";
        "end@5116";
        "observed@7116";
        "gpu0.nvshmem putmem_nbi 350-2100";
        "gpu1.nvshmem deliver:putmem_nbi 350-2100";
        "gpu0.nvshmem iput 716-2466";
        "gpu1.nvshmem deliver:iput 700-2466";
      ] );
    ( "putmem_nbi_k then quiet_k under drop=1.0",
      [
        "events 9";
        "clock 4200";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 2 delayed 0 resent 2 retried 0";
        "observed@0";
        "issued@350";
        "end@4200";
        "gpu0.nvshmem fault:drop:putmem_nbi 350-350";
        "gpu0.nvshmem fault:drop:putmem_nbi 700-700";
        "gpu0.nvshmem fault:resend:quiet 700-700";
        "gpu0.nvshmem putmem_nbi.resend 700-2450";
        "gpu1.nvshmem deliver:putmem_nbi 700-2450";
        "gpu0.nvshmem putmem_nbi.resend 2450-4200";
        "gpu1.nvshmem deliver:putmem_nbi 2450-4200";
      ] );
    ( "iput_nbi_k then quiet_k under drop=1.0",
      [
        "events 7";
        "clock 2116";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 1 delayed 0 resent 1 retried 0";
        "observed@0";
        "issued@350";
        "end@2116";
        "gpu0.nvshmem fault:drop:iput 350-350";
        "gpu0.nvshmem fault:resend:quiet 350-350";
        "gpu0.nvshmem iput 366-2116";
        "gpu1.nvshmem deliver:iput 350-2116";
      ] );
    ( "p_k under drop=1.0",
      [
        "events 6";
        "clock 4200";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,0,0,0,0,3.5,4.5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 0 delayed 0 resent 0 retried 0";
        "observed@0";
        "stored@2100";
        "end@4200";
        "gpu0.nvshmem p 350-2100";
        "gpu0.nvshmem p 2450-4200";
      ] );
    ( "quiet_k and signal_op_remote_k with nothing outstanding under drop=1.0",
      [
        "events 6";
        "clock 29650";
        "pending 0 0";
        "f@pe1 1";
        "x@pe1 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 1 delayed 0 resent 1 retried 1";
        "quiet@0";
        "end@0";
        "observed@29650";
        "gpu0.nvshmem fault:drop:signal_op 0-0";
        "gpu1.nvshmem fault:resend:f 25000-25000";
      ] );
    ( "signal_op_remote_k after puts under drop=1.0",
      [
        "events 14";
        "clock 29650";
        "pending 0 0";
        "f@pe1 1";
        "x@pe1 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 3 delayed 0 resent 3 retried 1";
        "issued@700";
        "end@4216";
        "observed@29650";
        "gpu0.nvshmem fault:drop:putmem_nbi 350-350";
        "gpu0.nvshmem fault:drop:iput 700-700";
        "gpu0.nvshmem fault:resend:quiet 700-700";
        "gpu0.nvshmem putmem_nbi.resend 700-2450";
        "gpu1.nvshmem deliver:putmem_nbi 700-2450";
        "gpu0.nvshmem iput 2466-4216";
        "gpu1.nvshmem deliver:iput 2450-4216";
        "gpu0.nvshmem fault:drop:signal_op 4216-4216";
        "gpu1.nvshmem fault:resend:f 25000-25000";
      ] );
    ( "putmem_nbi_k then quiet_k under drop=0.3,delay=0.3@2000",
      [
        "events 9";
        "clock 4200";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 2 delayed 0 resent 2 retried 0";
        "observed@0";
        "issued@350";
        "end@4200";
        "gpu0.nvshmem fault:drop:putmem_nbi 350-350";
        "gpu0.nvshmem fault:drop:putmem_nbi 700-700";
        "gpu0.nvshmem fault:resend:quiet 700-700";
        "gpu0.nvshmem putmem_nbi.resend 700-2450";
        "gpu1.nvshmem deliver:putmem_nbi 700-2450";
        "gpu0.nvshmem putmem_nbi.resend 2450-4200";
        "gpu1.nvshmem deliver:putmem_nbi 2450-4200";
      ] );
    ( "iput_nbi_k then quiet_k under drop=0.3,delay=0.3@2000",
      [
        "events 7";
        "clock 2116";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 1 delayed 0 resent 1 retried 0";
        "observed@0";
        "issued@350";
        "end@2116";
        "gpu0.nvshmem fault:drop:iput 350-350";
        "gpu0.nvshmem fault:resend:quiet 350-350";
        "gpu0.nvshmem iput 366-2116";
        "gpu1.nvshmem deliver:iput 350-2116";
      ] );
    ( "p_k under drop=0.3,delay=0.3@2000",
      [
        "events 6";
        "clock 4200";
        "pending 0 0";
        "f@pe1 0";
        "x@pe1 0,0,0,0,0,3.5,4.5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 0 delayed 0 resent 0 retried 0";
        "observed@0";
        "stored@2100";
        "end@4200";
        "gpu0.nvshmem p 350-2100";
        "gpu0.nvshmem p 2450-4200";
      ] );
    ( "quiet_k and signal_op_remote_k with nothing outstanding under drop=0.3,delay=0.3@2000",
      [
        "events 6";
        "clock 29650";
        "pending 0 0";
        "f@pe1 1";
        "x@pe1 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 1 delayed 0 resent 1 retried 1";
        "quiet@0";
        "end@0";
        "observed@29650";
        "gpu0.nvshmem fault:drop:signal_op 0-0";
        "gpu1.nvshmem fault:resend:f 25000-25000";
      ] );
    ( "signal_op_remote_k after puts under drop=0.3,delay=0.3@2000",
      [
        "events 15";
        "clock 25000";
        "pending 0 0";
        "f@pe1 1";
        "x@pe1 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
        "dropped 2 delayed 1 resent 2 retried 0";
        "issued@700";
        "end@9816";
        "observed@11816";
        "gpu0.nvshmem fault:drop:putmem_nbi 350-350";
        "gpu0.nvshmem fault:drop:iput 700-700";
        "gpu0.nvshmem fault:resend:quiet 700-700";
        "gpu0.nvshmem putmem_nbi.resend 700-2450";
        "gpu1.nvshmem deliver:putmem_nbi 700-2450";
        "gpu0.nvshmem iput 2466-4216";
        "gpu1.nvshmem deliver:iput 2450-4216";
      ] );
  ]

(* Three parties on one barrier and one three-role grid, the [i]th arriving
   [5 i] ns late for each of two rounds, written as steps. *)
let run_barrier () =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:1 () in
  let grid =
    G.Coop.make eng ~dev:(G.Runtime.device ctx 0) ~roles:3 ~total_blocks:3 ~threads_per_block:32
  in
  let barrier = E.Sync.Barrier.create ~name:"b" eng 3 in
  let marks = ref [] in
  let mark i what =
    marks := Printf.sprintf "%d %s@%d" i what (Time.to_ns (Engine.now eng)) :: !marks
  in
  for i = 0 to 2 do
    let late = Time.ns (5 * i) in
    ignore
      (Engine.spawn_callbacks eng ~name_of:(fun () -> "party") (fun () ->
           let rec round r =
             if r < 2 then
               Engine.after eng late (fun () ->
                   E.Sync.Barrier.wait_k barrier (fun () ->
                       mark i "barrier";
                       G.Coop.sync_k grid (fun () ->
                           mark i "grid";
                           round (r + 1))))
           in
           round 0)
        : Engine.process)
  done;
  Engine.run eng;
  [
    Printf.sprintf "events %d" (Engine.events_executed eng);
    Printf.sprintf "clock %d" (Time.to_ns (Engine.now eng));
    Printf.sprintf "generations %d %d" (E.Sync.Barrier.generation barrier) (G.Coop.sync_count grid);
  ]
  @ List.rev !marks

(* What [run_barrier] gave with the fiber forms ([Barrier.wait],
   [Coop.sync]: a delay, then a suspending wait), recorded when they still
   existed. *)
let barrier_recorded =
  [
    "events 23"; "clock 5620"; "generations 2 2";
    "2 barrier@10"; "1 barrier@10"; "0 barrier@10";
    "0 grid@2810"; "1 grid@2810"; "2 grid@2810";
    "2 barrier@2820"; "1 barrier@2820"; "0 barrier@2820";
    "0 grid@5620"; "1 grid@5620"; "2 grid@5620";
  ]

let forms_tests =
  Alcotest.test_case "Barrier.wait_k and Coop.sync_k push their fiber forms' events" `Quick
    (fun () ->
      check (Alcotest.list Alcotest.string) "run" barrier_recorded (run_barrier ()))
  :: List.concat_map
       (fun faults ->
         List.map
           (fun case ->
             (* A step that blocked as a fiber would raise: the run is a
                process of steps. *)
             Alcotest.test_case (case.fc_name ^ " pushes the fiber form's events") `Quick
               (fun () ->
                 check (Alcotest.list Alcotest.string) "run"
                   (List.assoc case.fc_name forms_recorded)
                   (run_form case)))
           (forms_cases faults))
       [ None; Some "drop=1.0"; Some "drop=0.3,delay=0.3@2000" ]

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
      ("steps", step_tests @ forms_tests);
    ]
