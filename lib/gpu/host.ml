module E = Cpufree_engine

type barrier = E.Sync.Barrier.t

let barrier_create ctx ~parties = E.Sync.Barrier.create ~name:"host.barrier" (Runtime.engine ctx) parties

let barrier_wait_k ctx b k =
  let eng = Runtime.engine ctx in
  let t0 = E.Engine.now eng in
  E.Sync.Barrier.wait_k b (fun () ->
      E.Engine.after eng (Runtime.arch ctx).Arch.host_barrier (fun () ->
          E.Trace.add_opt (E.Engine.trace eng) ~lane:"host" ~label:"host-barrier"
            ~kind:E.Trace.Synchronization ~t0 ~t1:(E.Engine.now eng);
          k ()))

let parallel_join ctx ~name f =
  let eng = Runtime.engine ctx in
  let n = Runtime.num_gpus ctx in
  let finished = E.Sync.Flag.create ~name:(name ^ ".joined") eng 0 in
  for g = 0 to n - 1 do
    let (_ : E.Engine.process) =
      E.Engine.spawn eng ~name:(Printf.sprintf "%s.host%d" name g) ~group:"host" (fun () ->
          f g;
          E.Sync.Flag.add finished 1)
    in
    ()
  done;
  E.Engine.handover eng (E.Sync.Flag.wait_ge_k finished n)
