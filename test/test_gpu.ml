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
        check_float "hbm" 1555.0 (G.Arch.hbm_bytes_per_ns arch);
        check_float "nvlink" 300.0 (G.Arch.nvlink_bytes_per_ns arch));
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
        check_int "len" 4 (G.Buffer.length b);
        check_int "bytes" 16 (G.Buffer.size_bytes b));
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
    Alcotest.test_case "max_abs_diff" `Quick (fun () ->
        let b = G.Buffer.create ~device:0 ~label:"b" 3 in
        G.Buffer.init b float_of_int;
        check_float "diff" 0.5 (G.Buffer.max_abs_diff b [| 0.0; 1.5; 2.0 |]));
  ]

(* --- Interconnect ------------------------------------------------------ *)

let net_tests =
  [
    Alcotest.test_case "transfer time = latency + serialization" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:4 in
        let t =
          G.Interconnect.transfer_time net ~src:(G.Interconnect.Gpu 0)
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
          G.Interconnect.transfer_time net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:0
        in
        let host =
          G.Interconnect.transfer_time net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_host ~bytes:0
        in
        check_bool "host slower" true Time.(dev < host));
    Alcotest.test_case "same-device transfer has no port latency" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let t =
          G.Interconnect.transfer_time net ~src:(G.Interconnect.Gpu 0)
            ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_device ~bytes:1555
        in
        check_int "hbm only" (1 + 250) (Time.to_ns t));
    Alcotest.test_case "blocking transfer advances the process clock" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"p" (fun () ->
              G.Interconnect.transfer net ~src:(G.Interconnect.Gpu 0)
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
                G.Interconnect.transfer net ~src:(G.Interconnect.Gpu 0)
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
                  G.Interconnect.transfer net ~src:(G.Interconnect.Gpu s)
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
              G.Interconnect.transfer net ~src:(G.Interconnect.Gpu 0)
                ~dst:(G.Interconnect.Gpu 1) ~initiator:G.Interconnect.By_device ~bytes:3_000 ();
              G.Interconnect.transfer net ~src:(G.Interconnect.Gpu 1)
                ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_device ~bytes:1_500 ())
        in
        Engine.run eng;
        check_int "bytes" 4_500 (G.Interconnect.bytes_moved net);
        check_int "transfers" 2 (G.Interconnect.transfers net);
        let egress, ingress = G.Interconnect.port_busy net ~gpu:0 in
        check_bool "egress busy" true Time.(egress > Time.zero);
        check_bool "ingress busy" true Time.(ingress > Time.zero));
    Alcotest.test_case "unknown GPU rejected" `Quick (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        Alcotest.check_raises "bad" (Invalid_argument "Interconnect: no such GPU 5") (fun () ->
            ignore
              (G.Interconnect.transfer_time net ~src:(G.Interconnect.Gpu 5)
                 ~dst:(G.Interconnect.Gpu 0) ~initiator:G.Interconnect.By_device ~bytes:0)));
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
              G.Stream.enqueue s (fun () ->
                  Engine.delay eng (Time.ns 50);
                  order := 1 :: !order);
              G.Stream.enqueue s (fun () -> order := 2 :: !order);
              G.Stream.await_idle s)
        in
        check (Alcotest.list Alcotest.int) "order" [ 1; 2 ] (List.rev !order));
    Alcotest.test_case "await_idle waits for prior work" `Quick (fun () ->
        let eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Stream.enqueue s (fun () -> Engine.delay eng (Time.ns 100));
              G.Stream.await_idle s)
        in
        check_int "waited" 100 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "counts track submissions and completions" `Quick (fun () ->
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Stream.enqueue s (fun () -> ());
              G.Stream.enqueue s (fun () -> ());
              check_int "submitted" 2 (G.Stream.enqueued s);
              G.Stream.await_count s 2;
              check_int "completed" 2 (G.Stream.completed s);
              ignore eng)
        in
        ());
    Alcotest.test_case "event gates another stream" `Quick (fun () ->
        let when_b = ref 0 in
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let dev = G.Runtime.device ctx 0 in
              let a = G.Stream.create eng ~dev ~name:"a" in
              let b = G.Stream.create eng ~dev ~name:"b" in
              let ev = G.Event.create eng ~name:"ev" in
              G.Stream.enqueue a (fun () -> Engine.delay eng (Time.ns 80));
              G.Event.record ev a;
              G.Event.stream_wait b ev;
              G.Stream.enqueue b (fun () -> when_b := Time.to_ns (Engine.now eng));
              G.Stream.await_idle b)
        in
        check_int "b waited for a" 80 !when_b);
    Alcotest.test_case "event query and synchronize" `Quick (fun () ->
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              let ev = G.Event.create eng ~name:"ev" in
              check_bool "unrecorded is complete" true (G.Event.query ev);
              G.Stream.enqueue s (fun () -> Engine.delay eng (Time.ns 10));
              G.Event.record ev s;
              check_bool "pending" false (G.Event.query ev);
              G.Event.synchronize ev;
              check_bool "complete" true (G.Event.query ev))
        in
        ());
  ]

(* --- Coop / Runtime / Host ---------------------------------------------- *)

let runtime_tests =
  [
    Alcotest.test_case "launch charges host launch latency" `Quick (fun () ->
        let after_launch = ref Time.zero in
        let _eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Runtime.launch ctx ~stream:s ~name:"k" (fun () -> ());
              after_launch := Engine.now eng;
              G.Runtime.stream_synchronize ctx s)
        in
        check_int "host paid launch" (Time.to_ns arch.G.Arch.kernel_launch)
          (Time.to_ns !after_launch));
    Alcotest.test_case "kernel pays device-side scheduling cost" `Quick (fun () ->
        let eng, _ =
          with_machine ~gpus:1 (fun eng ctx ->
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Runtime.launch ctx ~stream:s ~name:"k" ~cost:(Time.ns 100) (fun () -> ());
              G.Stream.await_idle s;
              ignore eng)
        in
        check_int "teardown + cost + launch"
          (Time.to_ns arch.G.Arch.kernel_launch + Time.to_ns arch.G.Arch.kernel_teardown + 100)
          (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "memcpy moves data between devices" `Quick (fun () ->
        let dst = G.Buffer.create ~device:1 ~label:"dst" 4 in
        let _eng, _ =
          with_machine ~gpus:2 (fun eng ctx ->
              let src = G.Buffer.create ~device:0 ~label:"src" 4 in
              G.Buffer.init src float_of_int;
              let s = G.Stream.create eng ~dev:(G.Runtime.device ctx 0) ~name:"s" in
              G.Runtime.memcpy_async ctx ~stream:s ~src ~src_pos:1 ~dst ~dst_pos:0 ~len:2;
              G.Runtime.stream_synchronize ctx s)
        in
        check_float "moved" 1.0 (G.Buffer.get dst 0);
        check_float "moved2" 2.0 (G.Buffer.get dst 1));
    Alcotest.test_case "cooperative launch rejects oversubscription" `Quick (fun () ->
        let _eng, _ =
          with_machine ~gpus:1 (fun _eng ctx ->
              let dev = G.Runtime.device ctx 0 in
              match
                G.Runtime.launch_cooperative ctx ~dev ~name:"big" ~blocks:109
                  ~threads_per_block:1024
                  ~roles:[ ("r", fun _ -> ()) ]
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
                G.Coop.sync grid;
                sync_times := Time.to_ns (Engine.now eng) :: !sync_times
              in
              let fin =
                G.Runtime.launch_cooperative ctx ~dev ~name:"k" ~blocks:108
                  ~threads_per_block:1024
                  ~roles:[ ("a", role 10); ("b", role 500) ]
              in
              G.Runtime.join_kernel ctx ~roles:2 fin)
        in
        match !sync_times with
        | [ a; b ] -> check_int "released together" a b
        | _ -> Alcotest.fail "expected two syncs");
    Alcotest.test_case "grid sync_count counts barriers" `Quick (fun () ->
        let counted = ref 0 in
        let _eng, _ =
          with_machine ~gpus:1 (fun _eng ctx ->
              let dev = G.Runtime.device ctx 0 in
              let role grid =
                for _ = 1 to 4 do
                  G.Coop.sync grid
                done;
                counted := G.Coop.sync_count grid
              in
              let fin =
                G.Runtime.launch_cooperative ctx ~dev ~name:"k" ~blocks:8
                  ~threads_per_block:1024 ~roles:[ ("only", role) ]
              in
              G.Runtime.join_kernel ctx ~roles:1 fin)
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
          with_machine ~gpus:2 (fun _eng ctx ->
              let b = G.Host.barrier_create ctx ~parties:2 in
              G.Host.parallel_join ctx ~name:"par" (fun _ -> G.Host.barrier_wait ctx b))
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
        check Alcotest.string "lane" "gpu3.comm" (G.Device.lane dev "comm");
        check Alcotest.string "main" "gpu3" (G.Device.main_lane dev));
  ]

(* --- Lookahead and memoized path costs ---------------------------------- *)

let lookahead_tests =
  [
    Alcotest.test_case "a100 lookahead bound is nvlink + device initiation" `Quick (fun () ->
        (* min(1500 + 250, 2500 + min(1900, 250)) = 1750 ns *)
        check_int "arch bound" 1750 (Time.to_ns (G.Arch.lookahead_bound arch)));
    Alcotest.test_case "zeroed-latency arch has zero lookahead" `Quick (fun () ->
        let free =
          {
            arch with
            G.Arch.nvlink_latency = Time.zero;
            gpu_initiated_latency = Time.zero;
          }
        in
        check_int "zero" 0 (Time.to_ns (G.Arch.lookahead_bound free)));
    Alcotest.test_case "memoized latencies match analytic values on every path" `Quick
      (fun () ->
        let eng = Engine.create () in
        let net = G.Interconnect.create eng ~arch ~num_gpus:2 in
        let lat ~src ~dst ~initiator =
          Time.to_ns (G.Interconnect.transfer_time net ~src ~dst ~initiator ~bytes:0)
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
            (G.Interconnect.transfer_time net ~src ~dst ~initiator:G.Interconnect.By_device
               ~bytes)
          - Time.to_ns
              (G.Interconnect.transfer_time net ~src ~dst ~initiator:G.Interconnect.By_device
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
      ("interconnect", net_tests @ lookahead_tests);
      ("kernel", kernel_tests);
      ("stream", stream_tests);
      ("runtime", runtime_tests);
    ]
