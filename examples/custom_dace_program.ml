(* Writing your own program against the compiler frontend.

   The canned benchmarks live in Cpufree_dace.Programs; this example builds a
   fresh SPMD program with the Builder eDSL — a damped smoothing filter over
   a distributed 1D signal with halo exchange — then drives it through the
   whole CPU-Free pipeline: NVSHMEMArray, in-kernel expansion, validation,
   GPUPersistentKernel fusion (optionally thread-block-specialized), and the
   persistent backend, with the generated CUDA-like kernel printed along the
   way.

     dune exec examples/custom_dace_program.exe *)

module D = Cpufree_dace
module Sdfg = D.Sdfg
module Sym = D.Symbolic
module Measure = Cpufree_core.Measure

let gpus = 4
let n_global = 1 lsl 20
let steps = 30
let n = n_global / gpus
let c = Sym.int
let t = Sym.sym "t"
let rank = Sym.sym "rank"

(* Halo exchange of array [arr], exactly like the paper's Listing 5.2:
   signaled single-element puts plus flag waits, guarded by rank position. *)
let exchange arr ~sig_up ~sig_down =
  let guard cond body = Sdfg.S_cond { cond; then_ = body } in
  [
    guard (Sym.Ge (rank, c 1))
      [
        Sdfg.S_lib
          (Sdfg.Nv_put
             {
               src = arr;
               src_region = Sdfg.single ~offset:(c 1);
               dst = arr;
               dst_region = Sdfg.single ~offset:(c (n + 1));
               to_pe = Sym.(rank - c 1);
               signal = Some (sig_down, Sdfg.Sig_set, t);
             });
      ];
    guard (Sym.Lt (rank, c (gpus - 1)))
      [
        Sdfg.S_lib
          (Sdfg.Nv_put
             {
               src = arr;
               src_region = Sdfg.single ~offset:(c n);
               dst = arr;
               dst_region = Sdfg.single ~offset:(c 0);
               to_pe = Sym.(rank + c 1);
               signal = Some (sig_up, Sdfg.Sig_set, t);
             });
      ];
    guard (Sym.Ge (rank, c 1))
      [
        Sdfg.S_lib
          (Sdfg.Nv_signal_wait { signal = sig_up; ge_value = t; from_pe = Sym.(rank - c 1) });
      ];
    guard (Sym.Lt (rank, c (gpus - 1)))
      [
        Sdfg.S_lib
          (Sdfg.Nv_signal_wait { signal = sig_down; ge_value = t; from_pe = Sym.(rank + c 1) });
      ];
  ]

let smooth src dst =
  Sdfg.S_map
    {
      Sdfg.m_var = "i";
      m_lo = c 1;
      m_hi = c n;
      m_schedule = Sdfg.Sequential;
      m_sem = Sdfg.Jacobi1d { src; dst };
      m_work = c 1;
    }

let build () =
  let b = D.Builder.create ~name:"smoother" in
  D.Builder.symbol b "N" n_global;
  D.Builder.array b "U" (c (n + 2));
  D.Builder.array b "V" (c (n + 2));
  List.iter (D.Builder.signal b) [ "sU_up"; "sU_down"; "sV_up"; "sV_down" ];
  let init arr =
    Sdfg.S_map
      {
        Sdfg.m_var = "i";
        m_lo = c 0;
        m_hi = c (n + 1);
        m_schedule = Sdfg.Sequential;
        m_sem = Sdfg.Init_global { dst = arr; global_off = Sym.(rank * c n) };
        m_work = c 1;
      }
  in
  D.Builder.state b "init" [ init "U"; init "V" ];
  D.Builder.time_loop b ~var:"t" ~from_:1 ~steps ~after:"init"
    ~body:
      [
        ("exch_U", exchange "U" ~sig_up:"sU_up" ~sig_down:"sU_down");
        ("smooth_V", [ smooth "U" "V" ]);
        ("exch_V", exchange "V" ~sig_up:"sV_up" ~sig_down:"sV_down");
        ("smooth_U", [ smooth "V" "U" ]);
      ];
  D.Builder.finish b ~start:"init"

let () =
  let sdfg = build () in
  Format.printf "frontend: %a@." Sdfg.pp_summary sdfg;

  (* The CPU-Free pipeline, pass by pass. *)
  let sdfg = D.Transforms.gpu_transform sdfg in
  let sdfg = D.Transforms.nvshmem_array sdfg in
  let sdfg = D.Transforms.expand_nvshmem sdfg in
  D.Validate.check_exn ~require_symmetric:true sdfg;
  match D.Persistent_fusion.apply sdfg with
  | Error e -> failwith e
  | Ok fused ->
    let specialized, pairs = D.Persistent_fusion.specialize_tb fused in
    Printf.printf "persistent fusion: %d barriers/iter; specialization fused %d pairs\n\n"
      (D.Persistent_fusion.barrier_count fused)
      pairs;
    print_string (D.Codegen.emit_persistent specialized);

    (* Execute with real data and spot-check against a sequential smoother. *)
    let built = D.Exec.build_persistent ~backed:true specialized in
    let r = Measure.run_env ~label:"smoother" ~gpus ~iterations:steps built.D.Exec.program in
    Format.printf "@.%a@." Measure.pp_result r;

    let reference =
      let a = ref (Array.init (n_global + 2) D.Exec.init_value) in
      let b = ref (Array.copy !a) in
      for _ = 1 to steps do
        for _half = 1 to 2 do
          for i = 1 to n_global do
            !b.(i) <- (!a.(i - 1) +. !a.(i) +. !a.(i + 1)) /. 3.0
          done;
          let tmp = !a in
          a := !b;
          b := tmp
        done
      done;
      !a
    in
    let worst = ref 0.0 in
    for pe = 0 to gpus - 1 do
      match built.D.Exec.read_array "U" ~pe with
      | None -> failwith "missing U"
      | Some buf ->
        for i = 1 to n do
          let err =
            Float.abs (Cpufree_gpu.Buffer.get buf i -. reference.((pe * n) + i))
          in
          if err > !worst then worst := err
        done
    done;
    Printf.printf "max |err| vs sequential smoother: %.2e (%s)\n" !worst
      (if !worst < 1e-9 then "OK" else "MISMATCH")
