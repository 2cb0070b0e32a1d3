(* Quickstart: write a CPU-Free program against the public API directly.

   We build a simulated 4-GPU machine, launch one persistent cooperative
   kernel per device with two specialized thread-block roles — a
   communication role that passes a token around the ring of PEs with
   NVSHMEM put+signal, and an inner role that "computes" — and show that the
   host does nothing between launch and join. Run with:

     dune exec examples/quickstart.exe *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Persistent = Cpufree_core.Persistent
module Time = E.Time

let gpus = 4
let rounds = 3

let () =
  (* 1. A machine: an engine (simulated clock) plus a runtime context with
     four A100-like devices on an NVSwitch fabric. *)
  let trace = E.Trace.create () in
  let eng = E.Engine.create ~trace () in
  let ctx = G.Runtime.create eng ~num_gpus:gpus () in

  (* 2. Symmetric state: a one-element token buffer and a signal per PE. *)
  let nv = Nv.init ctx in
  let token = Nv.sym_malloc nv ~label:"token" 1 in
  let ready = Nv.signal_malloc nv ~label:"ready" () in
  G.Buffer.set (Nv.local token ~pe:0) 0 1.0;

  (* 3. The kernel: every PE waits for the token, increments it, and puts it
     (with a signal) to the next PE — communication initiated entirely on
     device. The inner role burns compute concurrently and meets the comm
     role at grid.sync each round. A role is written as steps: each call
     that may wait (a signal wait, a put, the grid sync, a delay) is given
     the continuation to run once it is over, and the role ends by calling
     [finish]. *)
  let roles pe =
    let comm grid finish =
      let rec round r =
        if r > rounds then finish ()
        else begin
          let expected = (r - 1) * gpus in
          let await_token k =
            if pe > 0 || r > 1 then Nv.signal_wait_ge_k nv ~pe ~sig_var:ready (expected + pe) k
            else k ()
          in
          await_token (fun () ->
              let v = G.Buffer.get (Nv.local token ~pe) 0 in
              Printf.printf "  [%-7s] pe%d round %d holds token %.0f\n"
                (Time.to_string (E.Engine.now eng)) pe r v;
              (* Increment and pass it on, device-initiated. *)
              G.Buffer.set (Nv.local token ~pe) 0 (v +. 1.0);
              let next = (pe + 1) mod gpus in
              let pass k =
                if not (pe = gpus - 1 && r = rounds) then
                  Nv.putmem_signal_nbi_k nv ~from_pe:pe ~to_pe:next ~src:(Nv.local token ~pe)
                    ~src_pos:0 ~dst:token ~dst_pos:0 ~len:1 ~sig_var:ready ~sig_op:Nv.Signal_set
                    ~sig_value:(expected + pe + 1) k
                else k ()
              in
              pass (fun () -> G.Coop.sync_k grid (fun () -> round (r + 1))))
        end
      in
      round 1
    in
    let inner grid finish =
      let arch = G.Runtime.arch ctx in
      let rec round r =
        if r > rounds then finish ()
        else
          E.Engine.after eng
            (G.Kernel.memory_bound_time arch ~elems:100_000 ~bytes_per_elem:8.0
               ~sm_fraction:0.98 ~efficiency:1.0)
            (fun () -> G.Coop.sync_k grid (fun () -> round (r + 1)))
      in
      round 1
    in
    [ ("comm", comm); ("inner", inner) ]
  in

  (* 4. The whole host program: one cooperative launch, one join. *)
  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks eng
      ~name_of:(fun () -> "host")
      (fun () ->
        Persistent.run_all_k ctx ~name:"ring" ~blocks:(Persistent.max_blocks ctx)
          ~threads_per_block:1024 ~roles ignore)
  in
  Printf.printf "Launching a persistent ring kernel on %d simulated GPUs...\n" gpus;
  E.Engine.run eng;
  Printf.printf "Finished at simulated time %s.\n" (Time.to_string (E.Engine.now eng));
  Printf.printf "Bytes moved GPU-to-GPU: %d (all device-initiated)\n"
    (G.Interconnect.bytes_moved (G.Runtime.net ctx));
  Printf.printf "\nTimeline:\n%s" (E.Trace.render_ascii ~width:90 trace)
