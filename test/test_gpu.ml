(* Tests for the GPU hardware and runtime model: architecture parameters,
   buffers, the interconnect, the kernel cost model, streams, events,
   cooperative groups, and the host-side runtime API. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Time = E.Time
module Engine = E.Engine

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-9) msg
let arch = G.Arch.a100_hgx

(* Run a host program on a fresh simulated machine; return (engine, ctx). *)
let with_machine ?(gpus = 2) f =
  let eng = Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:gpus () in
  let (_ : Engine.process) = Engine.spawn eng ~name:"main" (fun () -> f eng ctx) in
  Engine.run eng;
  (eng, ctx)

(* --- Arch -------------------------------------------------------------- *)

let arch_tests =
  [
    Alcotest.test_case "A100 co-resident grid is 108 blocks" `Quick (fun () ->
        check_int "blocks" 108 (G.Arch.co_resident_blocks arch));
    Alcotest.test_case "GB/s equals bytes per nanosecond" `Quick (fun () ->
        check_float "hbm" 1555.0 (G.Arch.hbm_bytes_per_ns arch));
    Alcotest.test_case "GPU-initiated latency is far below host-initiated" `Quick (fun () ->
        check_bool "ordering" true
          Time.(arch.G.Arch.gpu_initiated_latency < arch.G.Arch.host_initiated_latency));
    Alcotest.test_case "H100 preset: more SMs, faster memory, same host costs" `Quick
      (fun () ->
        let h = G.Arch.h100_hgx in
        check_int "sms" 132 h.G.Arch.sm_count;
        check_bool "faster hbm" true (h.G.Arch.hbm_bw_gbs > arch.G.Arch.hbm_bw_gbs);
        check_bool "same launch cost" true
          (Time.equal h.G.Arch.kernel_launch arch.G.Arch.kernel_launch));
    Alcotest.test_case "arch lookup by name" `Quick (fun () ->
        check_bool "a100" true (G.Arch.of_name "A100" = Some G.Arch.a100_hgx);
        check_bool "h100" true (G.Arch.of_name "h100" = Some G.Arch.h100_hgx);
        check_bool "unknown" true (G.Arch.of_name "mi300" = None));
    Alcotest.test_case "pp mentions the name" `Quick (fun () ->
        let s = Format.asprintf "%a" G.Arch.pp arch in
        check_bool "name" true (Astring.String.is_infix ~affix:"A100" s));
  ]

(* --- Buffer ------------------------------------------------------------ *)

let buffer_tests =
  [
    Alcotest.test_case "create zero-filled" `Quick (fun () ->
        let b = G.Buffer.create ~device:0 ~label:"b" 4 in
        check_float "zero" 0.0 (G.Buffer.get b 3);
        check_int "len" 4 (G.Buffer.length b));
    Alcotest.test_case "set and get" `Quick (fun () ->
        let b = G.Buffer.create ~device:0 ~label:"b" 4 in
        G.Buffer.set b 2 7.5;
        check_float "val" 7.5 (G.Buffer.get b 2));
    Alcotest.test_case "out of bounds raises" `Quick (fun () ->
        let b = G.Buffer.create ~device:0 ~label:"b" 4 in
        Alcotest.check_raises "get"
          (Invalid_argument "Buffer.get: index 4 out of bounds for b[4]") (fun () ->
            ignore (G.Buffer.get b 4)));
    Alcotest.test_case "negative size rejected" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Buffer.create: negative size") (fun () ->
            ignore (G.Buffer.create ~device:0 ~label:"b" (-1))));
    Alcotest.test_case "init fills by index" `Quick (fun () ->
        let b = G.Buffer.create ~device:0 ~label:"b" 3 in
        G.Buffer.init b float_of_int;
        check_float "last" 2.0 (G.Buffer.get b 2));
    Alcotest.test_case "fill" `Quick (fun () ->
        let b = G.Buffer.create ~device:0 ~label:"b" 3 in
        G.Buffer.fill b 1.5;
        check_float "all" 1.5 (G.Buffer.get b 0));
    Alcotest.test_case "blit copies a range" `Quick (fun () ->
        let a = G.Buffer.create ~device:0 ~label:"a" 5 in
        let b = G.Buffer.create ~device:1 ~label:"b" 5 in
        G.Buffer.init a float_of_int;
        G.Buffer.blit ~src:a ~src_pos:1 ~dst:b ~dst_pos:3 ~len:2;
        check_float "b3" 1.0 (G.Buffer.get b 3);
        check_float "b4" 2.0 (G.Buffer.get b 4));
    Alcotest.test_case "blit bounds checked" `Quick (fun () ->
        let a = G.Buffer.create ~device:0 ~label:"a" 5 in
        Alcotest.check_raises "range"
          (Invalid_argument "Buffer.blit: range 4+2 out of bounds for a[5]") (fun () ->
            G.Buffer.blit ~src:a ~src_pos:4 ~dst:a ~dst_pos:0 ~len:2));
    Alcotest.test_case "strided blit gathers columns" `Quick (fun () ->
        (* 3x3 row-major: copy column 1 into a contiguous run. *)
        let a = G.Buffer.create ~device:0 ~label:"a" 9 in
        let b = G.Buffer.create ~device:0 ~label:"b" 9 in
        G.Buffer.init a float_of_int;
        G.Buffer.blit_strided ~src:a ~src_pos:1 ~src_stride:3 ~dst:b ~dst_pos:0 ~dst_stride:1
          ~count:3;
        check_float "c0" 1.0 (G.Buffer.get b 0);
        check_float "c1" 4.0 (G.Buffer.get b 1);
        check_float "c2" 7.0 (G.Buffer.get b 2));
    Alcotest.test_case "phantom reads zero, writes vanish" `Quick (fun () ->
        let b = G.Buffer.create ~phantom:true ~device:0 ~label:"p" 4 in
        check_bool "phantom" true (G.Buffer.is_phantom b);
        G.Buffer.set b 0 5.0;
        check_float "still zero" 0.0 (G.Buffer.get b 0);
        check_int "to_array empty" 0 (Array.length (G.Buffer.to_array b)));
    Alcotest.test_case "phantom blit is a no-op" `Quick (fun () ->
        let p = G.Buffer.create ~phantom:true ~device:0 ~label:"p" 4 in
        let b = G.Buffer.create ~device:0 ~label:"b" 4 in
        G.Buffer.fill b 3.0;
        G.Buffer.blit ~src:p ~src_pos:0 ~dst:b ~dst_pos:0 ~len:4;
        check_float "untouched" 3.0 (G.Buffer.get b 0));
  ]

(* --- Interconnect ------------------------------------------------------ *)

(* A transfer from a fiber: the step form through a handover. *)
let transfer eng net ~src ~dst ~initiator ~bytes () =
  Engine.handover eng (fun k -> G.Interconnect.transfer_steps net ~src ~dst ~initiator ~bytes k)

let net_tests =
  [
    Alcotest.test_case "transfer time = latency + serialization" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:4 in
        let t =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:300_000
        in
        (* 300 kB over 300 B/ns = 1000 ns, plus wire and initiation latency. *)
        let expect =
          1000 + Time.to_ns arch.G.Arch.nvlink_latency
          + Time.to_ns arch.G.Arch.gpu_initiated_latency
        in
        check_int "time" expect (Time.to_ns t));
    Alcotest.test_case "host initiation costs more" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let dev =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:0
        in
        let host =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_host ~bytes:0
        in
        check_bool "host slower" true Time.(dev < host));
    Alcotest.test_case "same-device transfer has no port latency" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let t =
          Fabric_probe.transfer_time eng net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_device ~bytes:1555
        in
        check_int "hbm only" (1 + 250) (Time.to_ns t));
    Alcotest.test_case "blocking transfer advances the process clock" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"p" (fun () ->
              transfer eng net ~src:(G.Interconnect.Gpu 0)
                ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:300 ())
        in
        Engine.run eng;
        let expect =
          1 + Time.to_ns arch.G.Arch.nvlink_latency
          + Time.to_ns arch.G.Arch.gpu_initiated_latency
        in
        check_int "now" expect (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "shared egress port serializes transfers" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:3 in
        let ends = ref [] in
        for dst = 1 to 2 do
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"p" (fun () ->
                transfer eng net ~src:(G.Interconnect.Gpu 0)
                  ~dst:(G.Interconnect.Gpu dst) ~initiator:G.Interconnect.By_device
                  ~bytes:300_000 ();
                ends := Time.to_ns (Engine.now eng) :: !ends)
          in
          ()
        done;
        Engine.run eng;
        (* Both transfers leave gpu0's egress: serialization (1000 each)
           queues; latency overlaps. *)
        let lat =
          Time.to_ns arch.G.Arch.nvlink_latency + Time.to_ns arch.G.Arch.gpu_initiated_latency
        in
        check (Alcotest.list Alcotest.int) "staggered ends"
          [ 2000 + lat; 1000 + lat ]
          !ends);
    Alcotest.test_case "distinct ports run concurrently" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:4 in
        let ends = ref [] in
        List.iter
          (fun (s, d) ->
            let (_ : Engine.process) =
              Engine.spawn eng ~name:"p" (fun () ->
                  transfer eng net ~src:(G.Interconnect.Gpu s)
                    ~dst:(G.Interconnect.Gpu d) ~initiator:G.Interconnect.By_device
                    ~bytes:300_000 ();
                  ends := Time.to_ns (Engine.now eng) :: !ends)
            in
            ())
          [ (0, 1); (2, 3) ];
        Engine.run eng;
        let one =
          1000 + Time.to_ns arch.G.Arch.nvlink_latency
          + Time.to_ns arch.G.Arch.gpu_initiated_latency
        in
        check (Alcotest.list Alcotest.int) "parallel" [ one; one ] !ends);
    Alcotest.test_case "accounting counts bytes and transfers" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"p" (fun () ->
              transfer eng net ~src:(G.Interconnect.Gpu 0)
                ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:3_000 ();
              transfer eng net ~src:(G.Interconnect.Gpu 1)
                ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_device ~bytes:1_500 ())
        in
        Engine.run eng;
        check_int "bytes" 4_500 (G.Interconnect.bytes_moved net);
        check_int "transfers" 2 (G.Interconnect.transfers net));
    Alcotest.test_case "unknown GPU rejected" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        Alcotest.check_raises "bad" (Invalid_argument "Interconnect: no such GPU 5") (fun () ->
            ignore
              (G.Interconnect.wire_latency net ~src:(G.Interconnect.Gpu 5)
                 ~dst:(G.Interconnect.Gpu 0))));
  ]

(* --- Kernel cost model -------------------------------------------------- *)

let kernel_tests =
  [
    Alcotest.test_case "roofline formula" `Quick (fun () ->
        (* 1555e3 elements * 8 B / (1555 B/ns) = 8000 ns at full device. *)
        let t =
          G.Kernel.memory_bound_time arch ~elems:1_555_000 ~bytes_per_elem:8.0 ~sm_fraction:1.0
            ~efficiency:1.0
        in
        check_int "t" 8_000 (Time.to_ns t));
    Alcotest.test_case "fraction scales inversely" `Quick (fun () ->
        let full =
          G.Kernel.memory_bound_time arch ~elems:155_500 ~bytes_per_elem:8.0 ~sm_fraction:1.0
            ~efficiency:1.0
        in
        let half =
          G.Kernel.memory_bound_time arch ~elems:155_500 ~bytes_per_elem:8.0 ~sm_fraction:0.5
            ~efficiency:1.0
        in
        check_int "full" 800 (Time.to_ns full);
        check_int "double" (2 * Time.to_ns full) (Time.to_ns half));
    Alcotest.test_case "invalid fractions rejected" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Kernel.memory_bound_time: sm_fraction must be in (0, 1]")
          (fun () ->
            ignore
              (G.Kernel.memory_bound_time arch ~elems:1 ~bytes_per_elem:8.0 ~sm_fraction:0.0
                 ~efficiency:1.0)));
    Alcotest.test_case "tiling efficiency kicks in past the threshold" `Quick (fun () ->
        let resident = G.Arch.co_resident_blocks arch * 1024 in
        let fits = resident * arch.G.Arch.persistent_tile_threshold in
        check_float "below" 1.0 (G.Kernel.tiling_efficiency arch ~elems:fits ~threads:1024);
        check_float "above" arch.G.Arch.persistent_tile_efficiency
          (G.Kernel.tiling_efficiency arch ~elems:(fits + 1) ~threads:1024));
    Alcotest.test_case "PERKS caching reduces traffic" `Quick (fun () ->
        let elems = 4 * G.Kernel.perks_cache_elems arch in
        check_bool "less" true
          (G.Kernel.perks_bytes_per_elem arch ~elems < G.Kernel.stencil_bytes_per_elem ());
        (* A quarter of the domain cached: traffic drops by a quarter. *)
        check_float "value"
          (G.Kernel.stencil_bytes_per_elem () *. 0.75)
          (G.Kernel.perks_bytes_per_elem arch ~elems));
    Alcotest.test_case "PERKS fraction saturates on fitting domains" `Quick (fun () ->
        let cap = G.Kernel.perks_cache_elems arch in
        check_float "tiny domain" 0.95 (G.Kernel.perks_cache_fraction arch ~elems:(cap / 2));
        check_float "floored traffic"
          (0.4 *. G.Kernel.stencil_bytes_per_elem ())
          (G.Kernel.perks_bytes_per_elem arch ~elems:(cap / 2)));
    Alcotest.test_case "PERKS cache capacity derives from the register and smem budgets"
      `Quick (fun () ->
        let expect =
          arch.G.Arch.sm_count
          * (arch.G.Arch.reg_cache_kb_per_sm + arch.G.Arch.smem_cache_kb_per_sm)
          * 1024 / G.Buffer.elem_bytes
        in
        check_int "capacity" expect (G.Kernel.perks_cache_elems arch));
  ]

(* --- Stream / Event ----------------------------------------------------- *)

let stream_tests =
  [
    Alcotest.test_case "operations run in order" `Quick (fun () ->
        let order = ref [] in
        let _eng, _ctx =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Stream.enqueue_steps s (fun k ->
                  Engine.after eng (Time.ns 50) (fun () ->
                      order := 1 :: !order;
                      k ()));
              G.Stream.enqueue_steps s (fun k ->
                  order := 2 :: !order;
                  k ());
              Engine.handover eng (G.Stream.await_idle_k s))
        in
        check (Alcotest.list Alcotest.int) "order" [ 1; 2 ] (List.rev !order));
    Alcotest.test_case "await_idle waits for prior work" `Quick (fun () ->
        let eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Stream.enqueue_steps s (Engine.after eng (Time.ns 100));
              Engine.handover eng (G.Stream.await_idle_k s))
        in
        check_int "waited" 100 (Time.to_ns (Engine.now eng)));
  ]

(* --- Coop / Runtime / Host ---------------------------------------------- *)

(* Two launches and a stream synchronize from one host process of steps
   ([launch_k], [stream_synchronize_k]): the events, the clock, the spans,
   the instants the host's marks ran at and the busy log. *)
let run_launches ~faults ~cost =
  let trace = E.Trace.create () in
  let eng = Engine.create ~trace () in
  let env =
    Option.map
      (fun f ->
        Cpufree_obs.Sim_env.make ~faults:(Result.get_ok (Cpufree_fault.Fault.of_string f)) ())
      faults
  in
  let ctx = G.Runtime.create eng ?env ~num_gpus:1 () in
  let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
  let marks = ref [] in
  let mark what = marks := Printf.sprintf "%s@%d" what (Time.to_ns (Engine.now eng)) :: !marks in
  let body i k =
    mark (Printf.sprintf "body%d" i);
    k ()
  in
  let (_ : Engine.process) =
    Engine.spawn_callbacks eng ~name_of:(fun () -> "host") (fun () ->
        G.Runtime.launch_k ctx ~stream:s ~name:"a" ~cost (body 1) (fun () ->
            mark "launched";
            G.Runtime.launch_k ctx ~stream:s ~name:"b" ~cost (body 2) (fun () ->
                G.Runtime.stream_synchronize_k ctx s (fun () -> mark "synced"))))
  in
  Engine.run eng;
  let span (sp : E.Trace.span) =
    Printf.sprintf "%s %s %d-%d" sp.E.Trace.lane sp.E.Trace.label (Time.to_ns sp.E.Trace.t0)
      (Time.to_ns sp.E.Trace.t1)
  in
  let comm, overlap = E.Intervals.Log.comm_and_overlap (Engine.busy eng) in
  [
    Printf.sprintf "events %d" (Engine.events_executed eng);
    Printf.sprintf "clock %d" (Time.to_ns (Engine.now eng));
    Printf.sprintf "busy compute %d comm %d overlap %g"
      (Time.to_ns (E.Intervals.Log.compute_total (Engine.busy eng)))
      (Time.to_ns comm) overlap;
  ]
  @ List.rev !marks
  @ List.map span (E.Trace.spans trace)

(* What the fiber form ([launch], [stream_synchronize] from a fiber) gave
   for each case of [run_launches], recorded when it still existed. *)
let launches_recorded =
  let run ~compute ~body1 ~body2 =
    [
      "events 11";
      "clock 19500";
      Printf.sprintf "busy compute %d comm 0 overlap 0" compute;
      "launched@6500";
      Printf.sprintf "body1@%d" body1;
      Printf.sprintf "body2@%d" body2;
      "synced@19500";
      "host launch:a 0-6500";
      Printf.sprintf "gpu0.s a 6500-%d" body1;
      "host launch:b 6500-13000";
      Printf.sprintf "gpu0.s b 13000-%d" body2;
      "host sync:s 13000-19500";
    ]
  in
  [
    (None, Time.zero, run ~compute:4400 ~body1:8700 ~body2:15200);
    (None, Time.ns 100, run ~compute:4600 ~body1:8800 ~body2:15300);
    (Some "straggler=0x1.5", Time.ns 100, run ~compute:4700 ~body1:8850 ~body2:15350);
  ]

(* A cooperative kernel [k] launched and joined from a fiber, as one
   handover. *)
let launch_and_join ctx ~dev ~blocks roles =
  Engine.handover (G.Runtime.engine ctx) (fun k ->
      G.Runtime.launch_cooperative_k ctx ~dev ~name:"k" ~blocks ~threads_per_block:1024 ~roles
        (fun fin -> E.Sync.Flag.wait_ge_k fin (List.length roles) k))

let runtime_tests =
  [
    Alcotest.test_case "launch charges host launch latency" `Quick (fun () ->
        let after_launch = ref Time.zero in
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              Engine.handover eng
                (G.Runtime.launch_k ctx ~stream:s ~name:"k" ~cost:Time.zero (fun k -> k ()));
              after_launch := Engine.now eng;
              Engine.handover eng (G.Runtime.stream_synchronize_k ctx s))
        in
        check_int "host paid launch" (Time.to_ns arch.G.Arch.kernel_launch)
          (Time.to_ns !after_launch));
    Alcotest.test_case "kernel pays device-side scheduling cost" `Quick (fun () ->
        let eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              Engine.handover eng
                (G.Runtime.launch_k ctx ~stream:s ~name:"k" ~cost:(Time.ns 100) (fun k -> k ()));
              Engine.handover eng (G.Stream.await_idle_k s))
        in
        check_int "teardown + cost + launch"
          (Time.to_ns arch.G.Arch.kernel_launch + Time.to_ns arch.G.Arch.kernel_teardown + 100)
          (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "launch_k pushes launch's events" `Quick (fun () ->
        List.iter
          (fun (faults, cost, recorded) ->
            check (Alcotest.list Alcotest.string)
              (Printf.sprintf "%s, cost %d" (Option.value faults ~default:"no faults")
                 (Time.to_ns cost))
              recorded
              (run_launches ~faults ~cost))
          launches_recorded);
    Alcotest.test_case "memcpy moves data between devices" `Quick (fun () ->
        let dst = G.Buffer.create ~device:1 ~label:"dst" 4 in
        let _eng, _ =
          with_machine ~gpus:2 (fun eng ctx ->
              let src = G.Buffer.create ~device:0 ~label:"src" 4 in
              G.Buffer.init src float_of_int;
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              Engine.handover eng
                (G.Runtime.memcpy_async_k ctx ~stream:s ~src ~src_pos:1 ~dst ~dst_pos:0 ~len:2);
              Engine.handover eng (G.Runtime.stream_synchronize_k ctx s))
        in
        check_float "moved" 1.0 (G.Buffer.get dst 0);
        check_float "moved2" 2.0 (G.Buffer.get dst 1));
    Alcotest.test_case "cooperative launch rejects oversubscription" `Quick (fun () ->
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let dev = G.Runtime.device ctx 0 in
              match
                Engine.handover eng
                  (G.Runtime.launch_cooperative_k ctx ~dev ~name:"big" ~blocks:109
                     ~threads_per_block:1024
                     ~roles:[ ("r", fun _ -> ()) ])
              with
              | (_ : E.Sync.Flag.t) -> Alcotest.fail "expected Coop_launch_error"
              | exception G.Runtime.Coop_launch_error msg ->
                check_bool "mentions co-residency" true
                  (Astring.String.is_infix ~affix:"co-resident" msg))
        in
        ());
    Alcotest.test_case "cooperative roles share a grid barrier" `Quick (fun () ->
        let sync_times = ref [] in
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let dev = G.Runtime.device ctx 0 in
              let role delay_ns grid =
                Engine.delay eng (Time.ns delay_ns);
                Engine.handover eng (G.Coop.sync_k grid);
                sync_times := Time.to_ns (Engine.now eng) :: !sync_times
              in
              launch_and_join ctx ~dev ~blocks:108 [ ("a", role 10); ("b", role 500) ])
        in
        match !sync_times with
        | [ a; b ] -> check_int "released together" a b
        | _ -> Alcotest.fail "expected two syncs");
    Alcotest.test_case "grid sync_count counts barriers" `Quick (fun () ->
        let counted = ref 0 in
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let dev = G.Runtime.device ctx 0 in
              let role grid =
                for _ = 1 to 4 do
                  Engine.handover eng (G.Coop.sync_k grid)
                done;
                counted := G.Coop.sync_count grid
              in
              launch_and_join ctx ~dev ~blocks:8 [ ("only", role) ])
        in
        check_int "4 barriers" 4 !counted);
    Alcotest.test_case "host threads run per GPU and join" `Quick (fun () ->
        let ids = ref [] in
        let _eng, _ =
          with_machine ~gpus:4 (fun _eng ctx ->
              G.Host.parallel_join ctx ~name:"par" (fun g -> ids := g :: !ids))
        in
        check (Alcotest.list Alcotest.int) "ids" [ 0; 1; 2; 3 ] (List.sort Int.compare !ids));
    Alcotest.test_case "host barrier costs its latency" `Quick (fun () ->
        let eng, _ =
          with_machine ~gpus:2 (fun eng ctx ->
              let b = G.Host.barrier_create ctx ~parties:2 in
              G.Host.parallel_join ctx ~name:"par" (fun _ ->
                  Engine.handover eng (G.Host.barrier_wait_k ctx b)))
        in
        check_int "barrier latency" (Time.to_ns arch.G.Arch.host_barrier)
          (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "runtime device bounds checked" `Quick (fun () ->
        let eng = Engine.create () in
        let ctx = G.Runtime.create eng ~num_gpus:2 () in
        Alcotest.check_raises "bad" (Invalid_argument "Runtime.device: no such GPU 2")
          (fun () -> ignore (G.Runtime.device ctx 2)));
    Alcotest.test_case "device lanes are namespaced" `Quick (fun () ->
        let eng = Engine.create () in
        let dev = G.Device.create eng ~arch ~id:3 in
        check Alcotest.string "lane" "gpu3.comm" (G.Device.lane dev "comm"));
  ]

(* --- Memoized path costs -------------------------------------------------- *)

let path_cost_tests =
  [
    Alcotest.test_case "memoized latencies match analytic values on every path" `Quick
      (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let lat ~src ~dst ~initiator =
          Time.to_ns (Fabric_probe.transfer_time eng net ~src ~dst ~initiator ~bytes:0)
        in
        let wire_nvlink = Time.to_ns arch.G.Arch.nvlink_latency in
        let wire_pcie = Time.to_ns arch.G.Arch.pcie_latency in
        let by_host = Time.to_ns arch.G.Arch.host_initiated_latency in
        let by_dev = Time.to_ns arch.G.Arch.gpu_initiated_latency in
        let open G.Interconnect in
        check_int "gpu-gpu by device" (wire_nvlink + by_dev)
          (lat ~src:(Gpu 0) ~dst:(Gpu 1) ~initiator:By_device);
        check_int "gpu-gpu by host" (wire_nvlink + by_host)
          (lat ~src:(Gpu 0) ~dst:(Gpu 1) ~initiator:By_host);
        check_int "gpu-host by device" (wire_pcie + by_dev)
          (lat ~src:(Gpu 0) ~dst:Host ~initiator:By_device);
        check_int "host-gpu by host" (wire_pcie + by_host)
          (lat ~src:Host ~dst:(Gpu 1) ~initiator:By_host);
        check_int "local by device" by_dev
          (lat ~src:(Gpu 1) ~dst:(Gpu 1) ~initiator:By_device);
        check_int "host-host by host" by_host (lat ~src:Host ~dst:Host ~initiator:By_host));
    Alcotest.test_case "memoized inverse bandwidths preserve serialization times" `Quick
      (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let ser ~src ~dst ~bytes =
          Time.to_ns
            (Fabric_probe.transfer_time eng net ~src ~dst ~initiator:G.Interconnect.By_device
               ~bytes)
          - Time.to_ns
              (Fabric_probe.transfer_time eng net ~src ~dst ~initiator:G.Interconnect.By_device
                 ~bytes:0)
        in
        let open G.Interconnect in
        (* Byte counts divisible by the link rates, so expectations are exact. *)
        check_int "nvlink 300 B/ns" 1_000 (ser ~src:(Gpu 0) ~dst:(Gpu 1) ~bytes:300_000);
        check_int "pcie 25 B/ns" 4_000 (ser ~src:(Gpu 0) ~dst:Host ~bytes:100_000);
        check_int "hbm 1555 B/ns" 100 (ser ~src:(Gpu 0) ~dst:(Gpu 0) ~bytes:155_500);
        check_int "zero bytes free" 0 (ser ~src:(Gpu 0) ~dst:(Gpu 1) ~bytes:0));
  ]

let () =
  Alcotest.run "gpu"
    [
      ("arch", arch_tests);
      ("buffer", buffer_tests);
      ("interconnect", net_tests @ path_cost_tests);
      ("kernel", kernel_tests);
      ("stream", stream_tests);
      ("runtime", runtime_tests);
    ]
