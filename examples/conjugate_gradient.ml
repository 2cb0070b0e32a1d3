(* Conjugate gradient, entirely CPU-Free.

   PERKS — whose persistent-kernel caching the paper builds on — evaluates
   stencils and conjugate gradient; this example shows the second workload
   class on our model. CG needs two things per iteration that a
   CPU-controlled runtime does with host round-trips:

   - a halo exchange for the sparse matvec (GPU-initiated put+signal here);
   - two global dot products (device-side allreduce here, built on
     fine-grained nvshmem_p + signal arithmetic — see Cpufree_comm.Collective).

   We solve the 1D Poisson system A x = b, A = tridiag(-1, 2, -1),
   partitioned over 4 simulated GPUs, inside one persistent kernel per
   device, and check the true residual at the end.

     dune exec examples/conjugate_gradient.exe *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Collective = Cpufree_comm.Collective
module Persistent = Cpufree_core.Persistent
module Time = E.Time

let gpus = 4
let n_global = 256
let iterations = n_global (* CG converges in at most n steps *)
let chunk = n_global / gpus

(* Deterministic right-hand side. *)
let b_value gi = sin (float_of_int (gi + 1) *. 0.37) +. 1.1

let () =
  let eng = E.Engine.create () in
  let ctx = G.Runtime.create eng ~num_gpus:gpus () in
  let nv = Nv.init ctx in
  let coll = Collective.create nv ~label:"cg" in
  let arch = G.Runtime.arch ctx in

  (* Distributed vectors with one halo cell per side: x, r, p, Ap. *)
  let vec label = Nv.sym_malloc nv ~label (chunk + 2) in
  let x = vec "x" and r = vec "r" and p = vec "p" and ap = vec "ap" in
  let halo_ready = Nv.signal_malloc nv ~label:"halo" () in

  (* Charge a memory-bound cost for a sweep over the local chunk. *)
  let sweep_cost ~arrays =
    G.Kernel.memory_bound_time arch ~elems:chunk
      ~bytes_per_elem:(float_of_int (arrays * G.Buffer.elem_bytes))
      ~sm_fraction:1.0 ~efficiency:1.0
  in

  let final_residual = Array.make gpus nan in

  (* A role is written as steps: each call that may wait (a put, a signal
     wait, an allreduce, a sweep's delay) is given the continuation to run
     once it is over, and the role ends by calling [finish]. *)
  let roles pe =
    let buf s = Nv.local s ~pe in
    let exchange_p ~iter k =
      (* Push my edge p-values into the neighbours' halos, signal, wait. *)
      let put ~to_pe ~src_pos ~dst_pos k =
        Nv.putmem_signal_nbi_k nv ~from_pe:pe ~to_pe ~src:(buf p) ~src_pos ~dst:p ~dst_pos ~len:1
          ~sig_var:halo_ready ~sig_op:Nv.Signal_add ~sig_value:1 k
      in
      let to_left k =
        if pe > 0 then put ~to_pe:(pe - 1) ~src_pos:1 ~dst_pos:(chunk + 1) k else k ()
      in
      let to_right k =
        if pe < gpus - 1 then put ~to_pe:(pe + 1) ~src_pos:chunk ~dst_pos:0 k else k ()
      in
      let expected_per_iter = (if pe > 0 then 1 else 0) + if pe < gpus - 1 then 1 else 0 in
      to_left (fun () ->
          to_right (fun () ->
              Nv.signal_wait_ge_k nv ~pe ~sig_var:halo_ready (iter * expected_per_iter) k))
    in
    let sweep ~arrays k = E.Engine.after eng (sweep_cost ~arrays) k in
    let allreduce v k = Collective.allreduce_sum_k coll ~pe v k in
    let solver _grid finish =
      (* x = 0; r = p = b. *)
      let local_rr = ref 0.0 in
      for i = 1 to chunk do
        let bi = b_value ((pe * chunk) + i - 1) in
        G.Buffer.set (buf x) i 0.0;
        G.Buffer.set (buf r) i bi;
        G.Buffer.set (buf p) i bi;
        local_rr := !local_rr +. (bi ** 2.0)
      done;
      let rec loop iter rr =
        if iter < iterations && rr > 1e-20 then begin
          let iter = iter + 1 in
          exchange_p ~iter (fun () ->
              (* Ap = A p (3-point stencil matvec; halos are fresh). *)
              let local_pap = ref 0.0 in
              for i = 1 to chunk do
                let gi = (pe * chunk) + i - 1 in
                let left = if gi = 0 then 0.0 else G.Buffer.get (buf p) (i - 1) in
                let right = if gi = n_global - 1 then 0.0 else G.Buffer.get (buf p) (i + 1) in
                let v = (2.0 *. G.Buffer.get (buf p) i) -. left -. right in
                G.Buffer.set (buf ap) i v;
                local_pap := !local_pap +. (G.Buffer.get (buf p) i *. v)
              done;
              sweep ~arrays:3 (fun () ->
                  allreduce !local_pap (fun pap ->
                      let alpha = rr /. pap in
                      (* x += alpha p; r -= alpha Ap. *)
                      let local_rr = ref 0.0 in
                      for i = 1 to chunk do
                        G.Buffer.set (buf x) i
                          (G.Buffer.get (buf x) i +. (alpha *. G.Buffer.get (buf p) i));
                        let ri = G.Buffer.get (buf r) i -. (alpha *. G.Buffer.get (buf ap) i) in
                        G.Buffer.set (buf r) i ri;
                        local_rr := !local_rr +. (ri *. ri)
                      done;
                      sweep ~arrays:4 (fun () ->
                          allreduce !local_rr (fun rr_new ->
                              let beta = rr_new /. rr in
                              for i = 1 to chunk do
                                G.Buffer.set (buf p) i
                                  (G.Buffer.get (buf r) i +. (beta *. G.Buffer.get (buf p) i))
                              done;
                              sweep ~arrays:2 (fun () -> loop iter rr_new))))))
        end
        else begin
          final_residual.(pe) <- sqrt rr;
          finish ()
        end
      in
      sweep ~arrays:3 (fun () -> allreduce !local_rr (loop 0))
    in
    [ ("solver", solver) ]
  in

  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks eng
      ~name_of:(fun () -> "host")
      (fun () ->
        Persistent.run_all_k ctx ~name:"cg" ~blocks:(Persistent.max_blocks ctx)
          ~threads_per_block:1024 ~roles ignore)
  in
  E.Engine.run eng;

  Printf.printf "CPU-Free conjugate gradient: %d unknowns on %d simulated GPUs\n" n_global gpus;
  Printf.printf "simulated solve time: %s\n" (Time.to_string (E.Engine.now eng));
  Printf.printf "recurrence residual ||r||: %.3e\n" final_residual.(0);

  (* Check the TRUE residual of the assembled solution: ||b - A x||. *)
  let full_x = Array.make n_global 0.0 in
  for pe = 0 to gpus - 1 do
    let buf = Nv.local x ~pe in
    for i = 1 to chunk do
      full_x.((pe * chunk) + i - 1) <- G.Buffer.get buf i
    done
  done;
  let true_res = ref 0.0 in
  for gi = 0 to n_global - 1 do
    let left = if gi = 0 then 0.0 else full_x.(gi - 1) in
    let right = if gi = n_global - 1 then 0.0 else full_x.(gi + 1) in
    let axi = (2.0 *. full_x.(gi)) -. left -. right in
    true_res := !true_res +. ((b_value gi -. axi) ** 2.0)
  done;
  Printf.printf "true residual ||b - Ax||:  %.3e  (%s)\n" (sqrt !true_res)
    (if sqrt !true_res < 1e-6 then "converged" else "NOT converged")
