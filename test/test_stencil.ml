(* Tests for the stencil application library: problem geometry, compute
   kernels, slab decomposition, all six execution variants (verified against
   the sequential reference across GPU counts and dimensionalities), and the
   scaling harness. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module S = Cpufree_stencil
module Problem = S.Problem
module Compute = S.Compute
module Slab = S.Slab
module Variants = S.Variants
module Harness = S.Harness
module Measure = Cpufree_core.Measure
module Time = E.Time

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-9) msg

let d2 nx ny = Problem.D2 { nx; ny }
let d3 nx ny nz = Problem.D3 { nx; ny; nz }

(* A variant's job through Measure.run. *)
let run ?arch ?env ?traced kind problem ~gpus =
  Measure.run ?traced (Harness.scenario_env ?arch ?env kind problem ~gpus)

let run_env ?arch kind problem ~gpus = (run ?arch kind problem ~gpus).Measure.result

(* --- Problem ------------------------------------------------------------ *)

let problem_tests =
  [
    Alcotest.test_case "plane geometry 2D" `Quick (fun () ->
        let p = Problem.make (d2 16 8) ~iterations:1 in
        check_int "plane" 16 (Problem.plane_elems p);
        check_int "planes" 8 (Problem.planes_global p);
        check_int "total" 128 (Problem.total_elems p));
    Alcotest.test_case "plane geometry 3D" `Quick (fun () ->
        let p = Problem.make (d3 4 5 6) ~iterations:1 in
        check_int "plane" 20 (Problem.plane_elems p);
        check_int "planes" 6 (Problem.planes_global p));
    Alcotest.test_case "non-positive dims rejected" `Quick (fun () ->
        Alcotest.check_raises "bad" (Invalid_argument "Problem.make: non-positive dimension")
          (fun () -> ignore (Problem.make (d2 0 4) ~iterations:1)));
    Alcotest.test_case "negative iterations rejected" `Quick (fun () ->
        Alcotest.check_raises "bad" (Invalid_argument "Problem.make: negative iteration count")
          (fun () -> ignore (Problem.make (d2 4 4) ~iterations:(-1))));
    Alcotest.test_case "weak scaling alternates axes in 2D" `Quick (fun () ->
        check Alcotest.string "x1" "256x256"
          (Problem.dims_to_string (Problem.weak_scale (d2 256 256) ~gpus:1));
        check Alcotest.string "x2" "512x256"
          (Problem.dims_to_string (Problem.weak_scale (d2 256 256) ~gpus:2));
        check Alcotest.string "x4" "512x512"
          (Problem.dims_to_string (Problem.weak_scale (d2 256 256) ~gpus:4));
        check Alcotest.string "x8" "1024x512"
          (Problem.dims_to_string (Problem.weak_scale (d2 256 256) ~gpus:8)));
    Alcotest.test_case "weak scaling alternates axes in 3D" `Quick (fun () ->
        check Alcotest.string "x8" "128x128x128"
          (Problem.dims_to_string (Problem.weak_scale (d3 64 64 64) ~gpus:8)));
    Alcotest.test_case "weak scaling keeps per-GPU volume constant" `Quick (fun () ->
        let base = Problem.make (d2 256 256) ~iterations:1 in
        List.iter
          (fun g ->
            let p = { base with Problem.dims = Problem.weak_scale base.Problem.dims ~gpus:g } in
            check_int "volume" (Problem.total_elems base) (Problem.total_elems p / g))
          [ 1; 2; 4; 8; 16 ]);
    Alcotest.test_case "weak scaling requires a power of two" `Quick (fun () ->
        Alcotest.check_raises "bad"
          (Invalid_argument "Problem.weak_scale: gpus must be a power of two") (fun () ->
            ignore (Problem.weak_scale (d2 4 4) ~gpus:3)));
    Alcotest.test_case "init_value is deterministic" `Quick (fun () ->
        check_float "same" (Problem.init_value 1234) (Problem.init_value 1234));
  ]

(* --- Compute ------------------------------------------------------------ *)

let mk_buf label n f =
  let b = G.Buffer.create ~device:G.Buffer.host_device ~label n in
  G.Buffer.init b f;
  b

let compute_tests =
  [
    Alcotest.test_case "2D update of one interior point" `Quick (fun () ->
        (* 3 columns x (1 plane + 2 halos): interior cell gets the average of
           its 4 neighbours; edge columns copy through. *)
        let src = mk_buf "s" 9 float_of_int in
        let dst = mk_buf "d" 9 (fun _ -> 0.0) in
        Compute.apply (Problem.D2 { nx = 3; ny = 1 }) ~src ~dst ~p0:1 ~p1:1;
        check_float "interior" (0.25 *. (1.0 +. 7.0 +. 3.0 +. 5.0)) (G.Buffer.get dst 4);
        check_float "left edge copied" 3.0 (G.Buffer.get dst 3);
        check_float "right edge copied" 5.0 (G.Buffer.get dst 5);
        check_float "halo untouched" 0.0 (G.Buffer.get dst 0));
    Alcotest.test_case "3D update averages six neighbours" `Quick (fun () ->
        (* 3x3 planes, 3 planes of storage: only the very centre is interior. *)
        let src = mk_buf "s" 27 float_of_int in
        let dst = mk_buf "d" 27 (fun _ -> 0.0) in
        Compute.apply (Problem.D3 { nx = 3; ny = 3; nz = 1 }) ~src ~dst ~p0:1 ~p1:1;
        let expected = (4.0 +. 22.0 +. 10.0 +. 16.0 +. 12.0 +. 14.0) /. 6.0 in
        check_float "centre" expected (G.Buffer.get dst 13);
        (* y-edge rows copy through *)
        check_float "y edge" 10.0 (G.Buffer.get dst 10));
    Alcotest.test_case "phantom buffers short-circuit" `Quick (fun () ->
        let src = G.Buffer.create ~phantom:true ~device:0 ~label:"s" 9 in
        let dst = G.Buffer.create ~device:0 ~label:"d" 9 in
        Compute.apply (Problem.D2 { nx = 3; ny = 1 }) ~src ~dst ~p0:1 ~p1:1;
        check_float "untouched" 0.0 (G.Buffer.get dst 4));
    Alcotest.test_case "reference preserves the fixed shell" `Quick (fun () ->
        let p = Problem.make ~backed:true (d2 6 4) ~iterations:3 in
        let r = Compute.reference p in
        check_int "size" ((Problem.planes_global p + 2) * Problem.plane_elems p) (Array.length r);
        (* Fixed top shell cell keeps its initial value. *)
        check_float "shell" (Problem.init_value 2) r.(2));
    Alcotest.test_case "reference converges toward smoothness" `Quick (fun () ->
        (* Jacobi averaging must shrink the discrete range of the interior. *)
        let p0 = Problem.make ~backed:true (d2 8 8) ~iterations:0 in
        let p50 = { p0 with Problem.iterations = 50 } in
        let range arr =
          let lo = ref infinity and hi = ref neg_infinity in
          let wd = 8 in
          for r = 1 to 8 do
            for c = 1 to 6 do
              let v = arr.((r * wd) + c) in
              if v < !lo then lo := v;
              if v > !hi then hi := v
            done
          done;
          !hi -. !lo
        in
        check_bool "smoother" true (range (Compute.reference p50) < range (Compute.reference p0)));
  ]

(* --- Slab --------------------------------------------------------------- *)

let slab_tests =
  [
    Alcotest.test_case "balanced decomposition with remainder" `Quick (fun () ->
        let p = Problem.make (d2 4 13) ~iterations:1 in
        let slabs = List.init 4 (fun pe -> Slab.make p ~n_pes:4 ~pe) in
        check (Alcotest.list Alcotest.int) "planes" [ 4; 3; 3; 3 ]
          (List.map (fun s -> s.Slab.planes) slabs);
        check (Alcotest.list Alcotest.int) "starts" [ 0; 4; 7; 10 ]
          (List.map (fun s -> s.Slab.global_start) slabs));
    Alcotest.test_case "offsets" `Quick (fun () ->
        let p = Problem.make (d2 8 16) ~iterations:1 in
        let s = Slab.make p ~n_pes:4 ~pe:1 in
        check_int "storage" (6 * 8) (Slab.storage_elems s);
        check_int "top halo" 0 (Slab.top_halo_off s);
        check_int "top own" 8 (Slab.top_own_off s);
        check_int "bottom own" 32 (Slab.bottom_own_off s);
        check_int "bottom halo" 40 (Slab.bottom_halo_off s));
    Alcotest.test_case "boundary and inner planes" `Quick (fun () ->
        let p = Problem.make (d2 8 16) ~iterations:1 in
        let s = Slab.make p ~n_pes:4 ~pe:0 in
        check (Alcotest.list Alcotest.int) "boundary" [ 1; 4 ] (Slab.boundary_planes s);
        check_bool "inner" true (Slab.inner_planes s = Some (2, 3));
        check_int "inner elems" 16 (Slab.inner_elems s));
    Alcotest.test_case "single-plane slab" `Quick (fun () ->
        let p = Problem.make (d2 8 4) ~iterations:1 in
        let s = Slab.make p ~n_pes:4 ~pe:2 in
        check (Alcotest.list Alcotest.int) "boundary" [ 1 ] (Slab.boundary_planes s);
        check_bool "no inner" true (Slab.inner_planes s = None));
    Alcotest.test_case "more PEs than planes rejected" `Quick (fun () ->
        let p = Problem.make (d2 8 2) ~iterations:1 in
        Alcotest.check_raises "bad" (Invalid_argument "Slab.make: fewer planes than PEs")
          (fun () -> ignore (Slab.make p ~n_pes:4 ~pe:0)));
    Alcotest.test_case "init matches the global initializer" `Quick (fun () ->
        let p = Problem.make ~backed:true (d2 4 8) ~iterations:1 in
        let s = Slab.make p ~n_pes:2 ~pe:1 in
        let b = G.Buffer.create ~device:1 ~label:"b" (Slab.storage_elems s) in
        Slab.init_buffer s b;
        (* Local element 0 is global plane 4 (pe 1's halo), index 16. *)
        check_float "first" (Problem.init_value 16) (G.Buffer.get b 0);
        check_float "mid" (Problem.init_value 21) (G.Buffer.get b 5));
    Alcotest.test_case "extract_owned returns interior offset" `Quick (fun () ->
        let p = Problem.make ~backed:true (d2 4 8) ~iterations:1 in
        let s = Slab.make p ~n_pes:2 ~pe:1 in
        let b = G.Buffer.create ~device:1 ~label:"b" (Slab.storage_elems s) in
        Slab.init_buffer s b;
        match Slab.extract_owned s b with
        | None -> Alcotest.fail "no data"
        | Some (off, values) ->
          check_int "offset" 16 off;
          check_int "len" 16 (Array.length values);
          check_float "first owned" (Problem.init_value 20) values.(0));
  ]

(* --- Variants: verification matrix --------------------------------------- *)

let verify_case kind dims gpus iterations =
  let name =
    Printf.sprintf "%s %s gpus=%d iters=%d" (Variants.name kind)
      (Problem.dims_to_string dims) gpus iterations
  in
  Alcotest.test_case name `Quick (fun () ->
      let problem = Problem.make ~backed:true dims ~iterations in
      match Harness.verify_env kind problem ~gpus with
      | Ok err -> check_bool "small error" true (err <= Harness.tolerance)
      | Error m -> Alcotest.fail m)

let verification_tests =
  List.concat_map
    (fun kind ->
      [
        verify_case kind (d2 24 24) 1 4;
        verify_case kind (d2 24 24) 2 4;
        verify_case kind (d2 24 24) 4 5;
        verify_case kind (d2 24 24) 8 3;
        verify_case kind (d3 8 8 16) 4 3;
        verify_case kind (d3 6 6 24) 8 2;
      ])
    Variants.all
  @ (* Uneven plane split exercises remainder handling (baselines only need
       one plane per PE; cpu-free needs two). *)
  List.concat_map
    (fun kind -> [ verify_case kind (d2 16 13) 4 3 ])
    [ Variants.Copy; Variants.Overlap; Variants.P2p; Variants.Nvshmem ]
  @ [ verify_case Variants.Cpu_free (d2 16 13) 4 3 ]

let variant_misc_tests =
  [
    Alcotest.test_case "names round-trip" `Quick (fun () ->
        List.iter
          (fun k -> check_bool "found" true (Variants.of_name (Variants.name k) = Some k))
          Variants.extended;
        check_bool "unknown" true (Variants.of_name "nope" = None));
    Alcotest.test_case "two-kernel cpu-free matches the reference" `Quick (fun () ->
        let problem = Problem.make ~backed:true (d2 24 24) ~iterations:4 in
        match Harness.verify_env Variants.Cpu_free_multi problem ~gpus:4 with
        | Ok err -> check_bool "small error" true (err <= Harness.tolerance)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "two-kernel cpu-free matches in 3D too" `Quick (fun () ->
        let problem = Problem.make ~backed:true (d3 6 6 16) ~iterations:3 in
        match Harness.verify_env Variants.Cpu_free_multi problem ~gpus:4 with
        | Ok err -> check_bool "small error" true (err <= Harness.tolerance)
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "two-kernel design performs close to single-kernel (the paper's claim)"
      `Quick (fun () ->
        (* Section 4: "We did not observe any significant performance
           improvement or degradation from this design". *)
        let problem = Problem.make (d2 2048 2048) ~iterations:20 in
        let single = run_env Variants.Cpu_free problem ~gpus:8 in
        let multi = run_env Variants.Cpu_free_multi problem ~gpus:8 in
        let ratio =
          Time.to_sec_float multi.Measure.total /. Time.to_sec_float single.Measure.total
        in
        check_bool "within 25%" true (ratio > 0.75 && ratio < 1.25));
    Alcotest.test_case "zero iterations leaves the initial state" `Quick (fun () ->
        let problem = Problem.make ~backed:true (d2 8 8) ~iterations:0 in
        match Harness.verify_env Variants.Cpu_free problem ~gpus:2 with
        | Ok err -> check_float "exact" 0.0 err
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "cpu-free needs two planes per PE" `Quick (fun () ->
        let problem = Problem.make (d2 8 4) ~iterations:1 in
        match Variants.build Variants.Cpu_free problem ~gpus:4 with
        | (_ : Variants.built) -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "infeasible geometry is rejected before it runs" `Quick (fun () ->
        let of_scenario variant dims =
          Harness.of_scenario
            (Cpufree_core.Scenario.make ~gpus:8
               (Cpufree_core.Scenario.Stencil { variant; dims; iters = 1; no_compute = false }))
        in
        let rejects variant dims affix =
          match of_scenario variant dims with
          | Ok _ -> Alcotest.failf "%s %s accepted" variant dims
          | Error e -> check_bool e true (Astring.String.is_infix ~affix e)
        in
        rejects "cpu-free" "2d:64x9" "at least two";
        rejects "baseline-copy" "2d:64x4" "fewer planes than PEs";
        rejects "nope" "2d:64x16" "cpu-free-2kernel";
        (match of_scenario "cpu-free" "2d:64x16" with
        | Ok hsc -> ignore (Measure.run ~traced:true hsc : Measure.outcome)
        | Error e -> Alcotest.fail e);
        check_bool "feasible neighbour" true
          (Variants.feasible Variants.Cpu_free (Problem.make (d2 64 16) ~iterations:1) ~gpus:8
           = Ok ()));
    Alcotest.test_case "no-compute mode still communicates (every variant)" `Quick (fun () ->
        let problem = Problem.make ~compute:false (d2 64 64) ~iterations:5 in
        List.iter
          (fun kind ->
            let r = run_env kind problem ~gpus:4 in
            check_bool (Variants.name kind ^ " comm") true Time.(r.Measure.comm > Time.zero);
            check_bool (Variants.name kind ^ " bytes") true (r.Measure.bytes_moved > 0))
          Variants.extended);
    Alcotest.test_case "cpu-free weak scaling stays near-flat" `Quick (fun () ->
        let base = Problem.make (d2 256 256) ~iterations:20 in
        let total gpus =
          let dims = Problem.weak_scale base.Problem.dims ~gpus in
          Time.to_sec_float (run_env Variants.Cpu_free { base with Problem.dims } ~gpus).Measure.total
        in
        let t1 = total 1 in
        List.iter
          (fun g ->
            check_bool (Printf.sprintf "efficiency at %d" g) true (t1 /. total g > 0.8))
          [ 2; 4; 8 ]);
    Alcotest.test_case "phantom mode moves no data but same simulated time" `Quick (fun () ->
        let run backed =
          run_env Variants.Nvshmem
            (Problem.make ~backed (d2 32 32) ~iterations:4)
            ~gpus:4
        in
        let a = run true and b = run false in
        check_int "identical timing" (Time.to_ns a.Measure.total) (Time.to_ns b.Measure.total));
  ]

(* Property: on random small domains the CPU-Free result equals the
   CPU-controlled Copy baseline result bit for bit (they implement the same
   numerical method). *)
let variant_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cpu-free matches reference on random domains" ~count:20
         QCheck.(triple (int_range 4 20) (int_range 8 24) (int_range 0 6))
         (fun (nx, ny, iterations) ->
           let problem = Problem.make ~backed:true (Problem.D2 { nx; ny }) ~iterations in
           match Harness.verify_env Variants.Cpu_free problem ~gpus:4 with
           | Ok _ -> true
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"nvshmem baseline matches reference on random 3D domains"
         ~count:12
         QCheck.(triple (int_range 3 8) (int_range 8 16) (int_range 1 4))
         (fun (nx, nz, iterations) ->
           let problem =
             Problem.make ~backed:true (Problem.D3 { nx; ny = nx; nz }) ~iterations
           in
           match Harness.verify_env Variants.Nvshmem problem ~gpus:2 with
           | Ok _ -> true
           | Error _ -> false));
  ]

(* --- Harness ------------------------------------------------------------- *)

let harness_tests =
  [
    Alcotest.test_case "verify requires backed buffers" `Quick (fun () ->
        let problem = Problem.make (d2 16 16) ~iterations:1 in
        match Harness.verify_env Variants.Copy problem ~gpus:2 with
        | Ok _ -> Alcotest.fail "should refuse phantom"
        | Error m -> check_bool "explains" true (Astring.String.is_infix ~affix:"backed" m));
    Alcotest.test_case "cpu-free beats the fully CPU-controlled baseline (small domain)"
      `Quick (fun () ->
        let problem = Problem.make (d2 256 256) ~iterations:50 in
        let copy = run_env Variants.Copy problem ~gpus:8 in
        let free = run_env Variants.Cpu_free problem ~gpus:8 in
        check_bool "faster" true Time.(free.Measure.total < copy.Measure.total);
        let speedup = Measure.speedup_pct ~baseline:copy ~ours:free in
        check_bool "large speedup" true (speedup > 50.0));
    Alcotest.test_case "norm checking costs more under CPU control" `Quick (fun () ->
        (* With a residual check every iteration, baselines pay a device
           kernel + D2H copy + host allreduce; CPU-Free reduces on device. *)
        let run kind norm =
          let problem =
            Problem.make ?norm_every:norm (d2 512 512) ~iterations:20
          in
          run_env kind problem ~gpus:4
        in
        let base_plain = run Variants.Nvshmem None in
        let base_norm = run Variants.Nvshmem (Some 1) in
        let free_plain = run Variants.Cpu_free None in
        let free_norm = run Variants.Cpu_free (Some 1) in
        check_bool "baseline pays" true
          Time.(base_norm.Measure.total > base_plain.Measure.total);
        check_bool "cpu-free pays" true
          Time.(free_norm.Measure.total > free_plain.Measure.total);
        let overhead r0 r1 =
          Time.to_sec_float r1.Measure.total -. Time.to_sec_float r0.Measure.total
        in
        check_bool "cpu-free norm is cheaper" true
          (overhead free_plain free_norm < overhead base_plain base_norm));
    Alcotest.test_case "norm checking does not disturb the numerics" `Quick (fun () ->
        let problem = Problem.make ~backed:true ~norm_every:2 (d2 16 16) ~iterations:4 in
        List.iter
          (fun kind ->
            match Harness.verify_env kind problem ~gpus:4 with
            | Ok _ -> ()
            | Error m -> Alcotest.fail (Variants.name kind ^ ": " ^ m))
          [ Variants.Copy; Variants.Nvshmem; Variants.Cpu_free; Variants.Cpu_free_multi ]);
    Alcotest.test_case "norm_every must be positive" `Quick (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Problem.make: norm_every must be positive")
          (fun () -> ignore (Problem.make ~norm_every:0 (d2 4 4) ~iterations:1)));
    Alcotest.test_case "H100 runs the same workload faster" `Quick (fun () ->
        let problem = Problem.make (d2 2048 2048) ~iterations:10 in
        let a100 = run_env ~arch:G.Arch.a100_hgx Variants.Cpu_free problem ~gpus:4 in
        let h100 = run_env ~arch:G.Arch.h100_hgx Variants.Cpu_free problem ~gpus:4 in
        check_bool "faster" true Time.(h100.Measure.total < a100.Measure.total));
    Alcotest.test_case "traced run produces device lanes" `Quick (fun () ->
        let problem = Problem.make (d2 64 64) ~iterations:2 in
        let trace = Option.get (run ~traced:true Variants.Overlap problem ~gpus:2).Measure.trace in
        check_bool "lanes" true (List.length (E.Trace.lanes trace) >= 2));
  ]

(* --- resilience: checkpoint/restart self-healing ------------------------- *)

module Fault = Cpufree_fault.Fault
module Env = Cpufree_obs.Sim_env

let kill_env s =
  match Fault.of_string s with
  | Ok spec -> Env.make ~faults:spec ~fault_seed:1 ()
  | Error e -> Alcotest.failf "spec: %s" e

let chaos_digest (c : Measure.chaos) =
  (Time.to_ns c.Measure.base.Measure.total, c.Measure.completed, Array.to_list c.Measure.progress)

let resilience_tests =
  [
    Alcotest.test_case "a mid-run kill heals onto the survivors" `Quick (fun () ->
        let problem = Problem.make (d2 96 96) ~iterations:12 in
        let r =
          Harness.run_resilient ~env:(kill_env "kill=1@25") ~checkpoint_every:2
            Variants.Cpu_free problem ~gpus:3
        in
        check_bool "first attempt aborted" false
          r.Harness.r_first.Measure.completed;
        check (Alcotest.option Alcotest.int) "diagnosed the corpse" (Some 1) r.Harness.r_killed;
        check_int "survivors" 2 r.Harness.r_survivors;
        check_bool "resumed" true (r.Harness.r_resume <> None);
        check_bool "completed" true r.Harness.r_completed;
        check_bool "degraded" true r.Harness.r_degraded;
        check_int "checkpoint aligned" 0 (r.Harness.r_checkpoint mod 2);
        check_bool "restored from a real checkpoint" true (r.Harness.r_checkpoint > 0);
        check_int "work saved accounts every survivor" (2 * r.Harness.r_checkpoint)
          r.Harness.r_work_saved;
        check_bool "restart cost charged" true Time.(r.Harness.r_restart_cost > zero);
        check_bool "total covers attempt + restart + resume" true
          Time.(
            r.Harness.r_total
            > Time.add r.Harness.r_first.Measure.base.Measure.total
                r.Harness.r_restart_cost);
        match r.Harness.r_resume with
        | None -> Alcotest.fail "no resume run"
        | Some res ->
          check (Alcotest.list Alcotest.int) "survivors finish the remainder"
            [ 12 - r.Harness.r_checkpoint; 12 - r.Harness.r_checkpoint ]
            (Array.to_list res.Measure.progress));
    Alcotest.test_case "the restart cost's wire term scales with the arch's NVLink" `Quick
      (fun () ->
        (* 90x90 on 3 GPUs: a 21,600-byte shard over 2 survivors, whole
           nanoseconds at both bandwidths. *)
        let problem = Problem.make (d2 90 90) ~iterations:12 in
        let wire arch =
          let r =
            Harness.run_resilient ~arch ~env:(kill_env "kill=1@25") ~checkpoint_every:2
              Variants.Cpu_free problem ~gpus:3
          in
          check (Alcotest.option Alcotest.int) "diagnosed the kill" (Some 1) r.Harness.r_killed;
          float_of_int (Time.to_ns (Time.sub r.Harness.r_restart_cost (Time.us 20)))
        in
        let a100 = G.Arch.a100_hgx and h100 = G.Arch.h100_hgx in
        let wire_a100 = wire a100 and wire_h100 = wire h100 in
        check_bool "a non-zero wire term" true (wire_h100 > 0.0);
        Alcotest.(check (float 0.0)) "wire time times bandwidth is the arch's shard bytes"
          (wire_a100 *. a100.G.Arch.nvlink_bw_gbs) (wire_h100 *. h100.G.Arch.nvlink_bw_gbs));
    Alcotest.test_case "fault-free control is byte-identical to a plain run" `Quick (fun () ->
        let problem = Problem.make (d2 96 96) ~iterations:6 in
        let env = kill_env "kill=0@100000" in
        let r =
          Harness.run_resilient ~env ~checkpoint_every:3 Variants.Cpu_free problem ~gpus:2
        in
        check_bool "completed" true r.Harness.r_completed;
        check_bool "not degraded" false r.Harness.r_degraded;
        check_bool "no resume" true (r.Harness.r_resume = None);
        check_int "no restart cost" 0 (Time.to_ns r.Harness.r_restart_cost);
        let plain = Option.get (run ~env Variants.Cpu_free problem ~gpus:2).Measure.chaos in
        check_bool "digest matches the plain chaos run" true
          (chaos_digest r.Harness.r_first = chaos_digest plain);
        check_int "total is the plain total" (Time.to_ns plain.Measure.base.Measure.total)
          (Time.to_ns r.Harness.r_total));
    Alcotest.test_case "bad arguments are rejected" `Quick (fun () ->
        let problem = Problem.make (d2 32 32) ~iterations:2 in
        Alcotest.check_raises "zero interval"
          (Invalid_argument "Harness.run_resilient: checkpoint interval must be positive")
          (fun () ->
            ignore
              (Harness.run_resilient ~env:(kill_env "kill=0@10") ~checkpoint_every:0
                 Variants.Cpu_free problem ~gpus:2));
        Alcotest.check_raises "missing fault plan"
          (Invalid_argument "Harness.run_resilient: env.faults must be set")
          (fun () ->
            ignore
              (Harness.run_resilient ~env:(Env.make ()) ~checkpoint_every:2
                 Variants.Cpu_free problem ~gpus:2)));
  ]

(* --- Pinned runs: every variant's events, time, comm and bytes ------------ *)

module Mx = Cpufree_obs.Metrics

(* Each variant at 1, 2, 3, 4 and 8 GPUs on a 2D and a 3D problem, with and
   without compute, plus a residual-norm problem: the engine's event count
   (from a metrics sink), the simulated total and comm and the bytes moved
   are pinned, so a rewrite of the variants that moves one event fails
   here. *)
let pin_problem ~compute = function
  | "2d" -> Problem.make ~compute (d2 64 64) ~iterations:4
  | "3d" -> Problem.make ~compute (d3 16 16 32) ~iterations:4
  | "2d/norm" -> Problem.make ~compute ~norm_every:2 (d2 64 64) ~iterations:6
  | p -> Alcotest.failf "unknown pin problem %s" p

let engine_events reg =
  match List.find (fun i -> i.Mx.name = "engine.events") (Mx.items reg) with
  | { Mx.value = Mx.Counter_v n; _ } -> n
  | _ -> Alcotest.fail "engine.events is not a counter"

let metered_run ?faults kind problem ~gpus =
  let reg = Mx.create () in
  let env = Env.make ?faults ~fault_seed:1 ~metrics:reg () in
  let o = run ~env kind problem ~gpus in
  (o, engine_events reg)

let pin_row kind dims gpus compute =
  let o, events = metered_run kind (pin_problem ~compute dims) ~gpus in
  let r = o.Measure.result in
  ( Variants.name kind, dims, gpus, compute, events, Time.to_ns r.Measure.total,
    Time.to_ns r.Measure.comm, r.Measure.bytes_moved )

let pin_faults = "drop=0.2;delay=0.1@2000"

let pin_chaos_row kind =
  let faults =
    match Fault.of_string pin_faults with Ok f -> f | Error e -> Alcotest.fail e
  in
  let o, events =
    metered_run ~faults kind (Problem.make (d2 64 64) ~iterations:8) ~gpus:4
  in
  let c = Option.get o.Measure.chaos in
  let r = c.Measure.base in
  ( Variants.name kind, events, Time.to_ns r.Measure.total, Time.to_ns r.Measure.comm,
    r.Measure.bytes_moved,
    (c.Measure.completed, c.Measure.trigger, c.Measure.dropped, c.Measure.delayed,
     c.Measure.resent, c.Measure.retried, Array.to_list c.Measure.progress) )

(* One traced run per paper variant through the daemon's executor: the md5
   of its Perfetto trace and metrics documents. *)
let pin_artifacts kind =
  let scenario =
    Cpufree_core.Scenario.make ~gpus:4 ~trace:true ~metrics:true
      (Cpufree_core.Scenario.Stencil
         { variant = Variants.name kind; dims = "3d:16x16x32"; iters = 3; no_compute = false })
  in
  match Cpufree_serve.Exec.run scenario with
  | Error e -> Alcotest.failf "%s: %s" (Variants.name kind) e
  | Ok { Cpufree_serve.Protocol.trace = Some trace; metrics = Some metrics; _ } ->
    let md5 s = Digest.to_hex (Digest.string s) in
    (Variants.name kind, md5 trace, md5 metrics)
  | Ok _ -> Alcotest.failf "%s: an artifact is missing" (Variants.name kind)

let pinned_runs =
  [
    ("baseline-copy", "2d", 1, true, 28, 136000, 0, 0);
    ("baseline-copy", "2d", 1, false, 28, 136000, 0, 0);
    ("baseline-copy", "2d", 2, true, 74, 143200, 13604, 2048);
    ("baseline-copy", "2d", 2, false, 74, 143200, 13604, 2048);
    ("baseline-copy", "2d", 3, true, 120, 150400, 27208, 4096);
    ("baseline-copy", "2d", 3, false, 120, 150400, 27208, 4096);
    ("baseline-copy", "2d", 4, true, 166, 150400, 27209, 6144);
    ("baseline-copy", "2d", 4, false, 166, 150400, 27209, 6144);
    ("baseline-copy", "2d", 8, true, 350, 150400, 27209, 14336);
    ("baseline-copy", "2d", 8, false, 350, 150400, 27209, 14336);
    ("baseline-copy", "3d", 1, true, 28, 136000, 0, 0);
    ("baseline-copy", "3d", 1, false, 28, 136000, 0, 0);
    ("baseline-copy", "3d", 2, true, 74, 143200, 13612, 8192);
    ("baseline-copy", "3d", 2, false, 74, 143200, 13612, 8192);
    ("baseline-copy", "3d", 3, true, 120, 150400, 27228, 16384);
    ("baseline-copy", "3d", 3, false, 120, 150400, 27224, 16384);
    ("baseline-copy", "3d", 4, true, 166, 150400, 27227, 24576);
    ("baseline-copy", "3d", 4, false, 166, 150400, 27227, 24576);
    ("baseline-copy", "3d", 8, true, 350, 150400, 27227, 57344);
    ("baseline-copy", "3d", 8, false, 350, 150400, 27227, 57344);
    ("baseline-copy", "2d/norm", 4, true, 361, 355500, 59415, 9264);
    ("baseline-overlap", "2d", 1, true, 49, 188000, 0, 0);
    ("baseline-overlap", "2d", 1, false, 49, 188000, 0, 0);
    ("baseline-overlap", "2d", 2, true, 116, 195200, 13604, 2048);
    ("baseline-overlap", "2d", 2, false, 116, 195200, 13604, 2048);
    ("baseline-overlap", "2d", 3, true, 183, 202400, 27208, 4096);
    ("baseline-overlap", "2d", 3, false, 183, 202400, 27208, 4096);
    ("baseline-overlap", "2d", 4, true, 250, 202400, 27209, 6144);
    ("baseline-overlap", "2d", 4, false, 250, 202400, 27209, 6144);
    ("baseline-overlap", "2d", 8, true, 518, 202400, 27209, 14336);
    ("baseline-overlap", "2d", 8, false, 518, 202400, 27209, 14336);
    ("baseline-overlap", "3d", 1, true, 49, 188000, 0, 0);
    ("baseline-overlap", "3d", 1, false, 49, 188000, 0, 0);
    ("baseline-overlap", "3d", 2, true, 116, 195200, 13612, 8192);
    ("baseline-overlap", "3d", 2, false, 116, 195200, 13612, 8192);
    ("baseline-overlap", "3d", 3, true, 183, 202400, 27224, 16384);
    ("baseline-overlap", "3d", 3, false, 183, 202400, 27224, 16384);
    ("baseline-overlap", "3d", 4, true, 250, 202400, 27227, 24576);
    ("baseline-overlap", "3d", 4, false, 250, 202400, 27227, 24576);
    ("baseline-overlap", "3d", 8, true, 518, 202400, 27227, 57344);
    ("baseline-overlap", "3d", 8, false, 518, 202400, 27227, 57344);
    ("baseline-overlap", "2d/norm", 4, true, 485, 433500, 59415, 9264);
    ("baseline-p2p", "2d", 1, true, 49, 188000, 0, 0);
    ("baseline-p2p", "2d", 1, false, 49, 188000, 0, 0);
    ("baseline-p2p", "2d", 2, true, 108, 188000, 7004, 2048);
    ("baseline-p2p", "2d", 2, false, 108, 188000, 7004, 2048);
    ("baseline-p2p", "2d", 3, true, 167, 188000, 14008, 4096);
    ("baseline-p2p", "2d", 3, false, 167, 188000, 14008, 4096);
    ("baseline-p2p", "2d", 4, true, 226, 188000, 14010, 6144);
    ("baseline-p2p", "2d", 4, false, 226, 188000, 14010, 6144);
    ("baseline-p2p", "2d", 8, true, 462, 188000, 14010, 14336);
    ("baseline-p2p", "2d", 8, false, 462, 188000, 14010, 14336);
    ("baseline-p2p", "3d", 1, true, 49, 188000, 0, 0);
    ("baseline-p2p", "3d", 1, false, 49, 188000, 0, 0);
    ("baseline-p2p", "3d", 2, true, 108, 188000, 7012, 8192);
    ("baseline-p2p", "3d", 2, false, 108, 188000, 7012, 8192);
    ("baseline-p2p", "3d", 3, true, 167, 188000, 14024, 16384);
    ("baseline-p2p", "3d", 3, false, 167, 188000, 14024, 16384);
    ("baseline-p2p", "3d", 4, true, 226, 188000, 14030, 24576);
    ("baseline-p2p", "3d", 4, false, 226, 188000, 14030, 24576);
    ("baseline-p2p", "3d", 8, true, 462, 188000, 14030, 57344);
    ("baseline-p2p", "3d", 8, false, 462, 188000, 14030, 57344);
    ("baseline-p2p", "2d/norm", 4, true, 449, 411900, 34215, 9264);
    ("baseline-nvshmem", "2d", 1, true, 40, 78000, 0, 0);
    ("baseline-nvshmem", "2d", 1, false, 40, 78000, 0, 0);
    ("baseline-nvshmem", "2d", 2, true, 110, 78000, 7004, 2048);
    ("baseline-nvshmem", "2d", 2, false, 110, 78000, 7004, 2048);
    ("baseline-nvshmem", "2d", 3, true, 180, 78000, 8404, 4096);
    ("baseline-nvshmem", "2d", 3, false, 180, 78000, 8404, 4096);
    ("baseline-nvshmem", "2d", 4, true, 250, 78000, 8404, 6144);
    ("baseline-nvshmem", "2d", 4, false, 250, 78000, 8404, 6144);
    ("baseline-nvshmem", "2d", 8, true, 530, 78000, 8404, 14336);
    ("baseline-nvshmem", "2d", 8, false, 530, 78000, 8404, 14336);
    ("baseline-nvshmem", "3d", 1, true, 40, 78000, 0, 0);
    ("baseline-nvshmem", "3d", 1, false, 40, 78000, 0, 0);
    ("baseline-nvshmem", "3d", 2, true, 110, 78000, 7012, 8192);
    ("baseline-nvshmem", "3d", 2, false, 110, 78000, 7012, 8192);
    ("baseline-nvshmem", "3d", 3, true, 180, 78000, 8416, 16384);
    ("baseline-nvshmem", "3d", 3, false, 180, 78000, 8412, 16384);
    ("baseline-nvshmem", "3d", 4, true, 250, 78000, 8412, 24576);
    ("baseline-nvshmem", "3d", 4, false, 250, 78000, 8412, 24576);
    ("baseline-nvshmem", "3d", 8, true, 530, 78000, 8412, 57344);
    ("baseline-nvshmem", "3d", 8, false, 530, 78000, 8412, 57344);
    ("baseline-nvshmem", "2d/norm", 4, true, 487, 246900, 25806, 9264);
    ("cpu-free", "2d", 1, true, 45, 22544, 0, 0);
    ("cpu-free", "2d", 1, false, 45, 22400, 0, 0);
    ("cpu-free", "2d", 2, true, 119, 23836, 7004, 2048);
    ("cpu-free", "2d", 2, false, 119, 23800, 7004, 2048);
    ("cpu-free", "2d", 3, true, 193, 23828, 7014, 4096);
    ("cpu-free", "2d", 3, false, 193, 23800, 7008, 4096);
    ("cpu-free", "2d", 4, true, 267, 23820, 7011, 6144);
    ("cpu-free", "2d", 4, false, 267, 23800, 7011, 6144);
    ("cpu-free", "2d", 8, true, 563, 23812, 7015, 14336);
    ("cpu-free", "2d", 8, false, 563, 23800, 7015, 14336);
    ("cpu-free", "3d", 1, true, 45, 22968, 0, 0);
    ("cpu-free", "3d", 1, false, 45, 22400, 0, 0);
    ("cpu-free", "3d", 2, true, 119, 23880, 7012, 8192);
    ("cpu-free", "3d", 2, false, 119, 23800, 7012, 8192);
    ("cpu-free", "3d", 3, true, 193, 23856, 7034, 16384);
    ("cpu-free", "3d", 3, false, 193, 23800, 7024, 16384);
    ("cpu-free", "3d", 4, true, 267, 23840, 7033, 24576);
    ("cpu-free", "3d", 4, false, 267, 23800, 7033, 24576);
    ("cpu-free", "3d", 8, true, 563, 23820, 7045, 57344);
    ("cpu-free", "3d", 8, false, 563, 23800, 7045, 57344);
    ("cpu-free", "2d/norm", 4, true, 563, 46539, 18314, 9360);
    ("cpu-free-perks", "2d", 1, true, 45, 22544, 0, 0);
    ("cpu-free-perks", "2d", 1, false, 45, 22400, 0, 0);
    ("cpu-free-perks", "2d", 2, true, 119, 23836, 7004, 2048);
    ("cpu-free-perks", "2d", 2, false, 119, 23800, 7004, 2048);
    ("cpu-free-perks", "2d", 3, true, 193, 23828, 7014, 4096);
    ("cpu-free-perks", "2d", 3, false, 193, 23800, 7008, 4096);
    ("cpu-free-perks", "2d", 4, true, 267, 23820, 7011, 6144);
    ("cpu-free-perks", "2d", 4, false, 267, 23800, 7011, 6144);
    ("cpu-free-perks", "2d", 8, true, 563, 23812, 7015, 14336);
    ("cpu-free-perks", "2d", 8, false, 563, 23800, 7015, 14336);
    ("cpu-free-perks", "3d", 1, true, 45, 22968, 0, 0);
    ("cpu-free-perks", "3d", 1, false, 45, 22400, 0, 0);
    ("cpu-free-perks", "3d", 2, true, 119, 23880, 7012, 8192);
    ("cpu-free-perks", "3d", 2, false, 119, 23800, 7012, 8192);
    ("cpu-free-perks", "3d", 3, true, 193, 23856, 7034, 16384);
    ("cpu-free-perks", "3d", 3, false, 193, 23800, 7024, 16384);
    ("cpu-free-perks", "3d", 4, true, 267, 23840, 7033, 24576);
    ("cpu-free-perks", "3d", 4, false, 267, 23800, 7033, 24576);
    ("cpu-free-perks", "3d", 8, true, 563, 23820, 7045, 57344);
    ("cpu-free-perks", "3d", 8, false, 563, 23800, 7045, 57344);
    ("cpu-free-perks", "2d/norm", 4, true, 563, 46533, 18314, 9360);
    ("cpu-free-2kernel", "2d", 1, true, 53, 32728, 0, 0);
    ("cpu-free-2kernel", "2d", 1, false, 53, 32600, 0, 0);
    ("cpu-free-2kernel", "2d", 2, true, 140, 36790, 10606, 2048);
    ("cpu-free-2kernel", "2d", 2, false, 140, 36752, 10606, 2048);
    ("cpu-free-2kernel", "2d", 3, true, 223, 36778, 12314, 4096);
    ("cpu-free-2kernel", "2d", 3, false, 223, 36752, 12306, 4096);
    ("cpu-free-2kernel", "2d", 4, true, 306, 36772, 12312, 6144);
    ("cpu-free-2kernel", "2d", 4, false, 306, 36752, 12307, 6144);
    ("cpu-free-2kernel", "2d", 8, true, 638, 36764, 12314, 14336);
    ("cpu-free-2kernel", "2d", 8, false, 638, 36752, 12311, 14336);
    ("cpu-free-2kernel", "3d", 1, true, 53, 33066, 0, 0);
    ("cpu-free-2kernel", "3d", 1, false, 53, 32600, 0, 0);
    ("cpu-free-2kernel", "3d", 2, true, 140, 36837, 10618, 8192);
    ("cpu-free-2kernel", "3d", 2, false, 140, 36756, 10618, 8192);
    ("cpu-free-2kernel", "3d", 3, true, 223, 36813, 12333, 16384);
    ("cpu-free-2kernel", "3d", 3, false, 223, 36756, 12318, 16384);
    ("cpu-free-2kernel", "3d", 4, true, 306, 36797, 12331, 24576);
    ("cpu-free-2kernel", "3d", 4, false, 306, 36756, 12321, 24576);
    ("cpu-free-2kernel", "3d", 8, true, 638, 36776, 12338, 57344);
    ("cpu-free-2kernel", "3d", 8, false, 638, 36756, 12333, 57344);
    ("cpu-free-2kernel", "2d/norm", 4, true, 628, 56989, 20664, 9360);
  ]

let pinned_chaos =
  [
    ("baseline-copy", 322, 300800, 54417, 12288, (true, None, 0, 0, 0, 0, [ 8; 8; 8; 8 ]));
    ("baseline-overlap", 486, 404800, 54417, 12288, (true, None, 0, 0, 0, 0, [ 8; 8; 8; 8 ]));
    ("baseline-p2p", 438, 376000, 28020, 12288, (true, None, 0, 0, 0, 0, [ 8; 8; 8; 8 ]));
    ("baseline-nvshmem", 531, 211250, 54510, 11008, (true, None, 12, 4, 7, 4, [ 8; 8; 8; 8 ]));
    ("cpu-free", 551, 122000, 47792, 10752, (true, None, 12, 4, 6, 4, [ 8; 8; 8; 8 ]));
    ("cpu-free-perks", 551, 122000, 47792, 10752, (true, None, 12, 4, 6, 4, [ 8; 8; 8; 8 ]));
    ("cpu-free-2kernel", 623, 131849, 53676, 11264, (true, None, 12, 4, 8, 5, [ 8; 8; 8; 8 ]));
  ]

let pinned_artifacts =
  [
    ("baseline-copy", "66e610e233dbd900b3fee3645f90ce0b", "1cc39fd97b664d1ac78ebeec0a12757a");
    ("baseline-overlap", "4e4886baa738173e5db1c66a680d6ad1", "7059d1c60c59af18712a9160c78d3088");
    ("baseline-p2p", "c0b2fa15a37096996ba0c998b21ea44d", "2ffd82f7d7fa33f3cf72c3723d9f19f9");
    ("baseline-nvshmem", "811e374eb281f7423ae8deeb08ba2a1f", "1b6ba226811ad4775b3cc407b0f3cc9a");
    ("cpu-free", "f966f30bbe961d456cb2a2558bed5f6f", "39e64097577bf69f2ab7eb1e7eb4f2cd");
    ("cpu-free-perks", "5a140abe9a6b687368e7fe913a2e367f", "39e64097577bf69f2ab7eb1e7eb4f2cd");
  ]

let row_string (v, dims, gpus, compute, events, total, comm, bytes) =
  Printf.sprintf "%s %s x%d compute=%b: events %d total %d comm %d bytes %d" v dims gpus compute
    events total comm bytes

let kind_of v = match Variants.of_name v with Some k -> k | None -> Alcotest.failf "variant %s" v

(* Fiber resumes of one 2-GPU run (2d:32x32, norm every 2 iterations),
   driven by the engine directly: every process of the run counts. A host
   rank and a persistent role each run as one step program and a stream
   serves its queue as steps, so the count does not grow with the
   iterations. What is left: the main process's start; each host rank's
   and stream's start (copy and nvshmem one stream per rank, overlap and
   p2p two); and for the persistent variants each role's start and the end
   of its teardown delay (three roles per GPU; the two-kernel design's
   comm and comp kernels together have three too) plus, for cpu-free and
   perks, each drain rank's start. *)
let fiber_resumes kind ~iters =
  let problem = Problem.make ~norm_every:2 (d2 32 32) ~iterations:iters in
  let built = Variants.build kind problem ~gpus:2 in
  let eng = E.Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:2 () in
  let (_ : E.Engine.process) =
    E.Engine.spawn eng ~name:"main" (fun () -> built.Variants.program ctx)
  in
  E.Engine.run eng;
  E.Engine.fiber_resumes eng

let pinned_resumes =
  [
    ("baseline-copy", 5);
    ("baseline-overlap", 7);
    ("baseline-p2p", 7);
    ("baseline-nvshmem", 5);
    ("cpu-free", 17);
    ("cpu-free-perks", 17);
    ("cpu-free-2kernel", 15);
  ]

let pinned_tests =
  [
    Alcotest.test_case "a stencil rank resumes as a fiber only to start" `Quick (fun () ->
        List.iter
          (fun (v, want) ->
            List.iter
              (fun iters ->
                check_int
                  (Printf.sprintf "%s, %d iterations" v iters)
                  want
                  (fiber_resumes (kind_of v) ~iters))
              [ 1; 2; 4 ])
          pinned_resumes);
    Alcotest.test_case "every variant keeps its events, time, comm and bytes" `Quick (fun () ->
        List.iter
          (fun ((v, dims, gpus, compute, _, _, _, _) as row) ->
            check Alcotest.string (row_string row) (row_string row)
              (row_string (pin_row (kind_of v) dims gpus compute)))
          pinned_runs);
    Alcotest.test_case "faulted runs keep their chaos reports" `Quick (fun () ->
        List.iter
          (fun ((v, _, _, _, _, _) as row) ->
            let show (v, events, total, comm, bytes, (completed, trigger, dr, de, rs, rt, pr)) =
              Printf.sprintf
                "%s: events %d total %d comm %d bytes %d completed %b trigger %s dropped %d \
                 delayed %d resent %d retried %d progress [%s]"
                v events total comm bytes completed
                (Option.value trigger ~default:"-")
                dr de rs rt
                (String.concat "; " (List.map string_of_int pr))
            in
            check Alcotest.string v (show row) (show (pin_chaos_row (kind_of v))))
          pinned_chaos);
    Alcotest.test_case "traced paper-variant artifacts are byte-pinned" `Quick (fun () ->
        List.iter
          (fun (v, trace_md5, metrics_md5) ->
            let _, trace, metrics = pin_artifacts (kind_of v) in
            check Alcotest.string (v ^ " trace") trace_md5 trace;
            check Alcotest.string (v ^ " metrics") metrics_md5 metrics)
          pinned_artifacts);
  ]

let () =
  Alcotest.run "stencil"
    [
      ("problem", problem_tests);
      ("compute", compute_tests);
      ("slab", slab_tests);
      ("variants-verify", verification_tests);
      ("variants-misc", variant_misc_tests @ variant_props);
      ("harness", harness_tests);
      ("resilience", resilience_tests);
      ("pinned", pinned_tests);
    ]
