(* How long one blocking transfer takes on an idle fabric: its latency plus
   its serialization. It runs the engine to completion, so call it between
   runs, never from inside a process. *)

module E = Cpufree_engine
module G = Cpufree_gpu

let transfer_time eng net ~src ~dst ~initiator ~bytes =
  let took = ref E.Time.zero in
  let (_ : E.Engine.process) =
    E.Engine.spawn eng ~name:"probe" (fun () ->
        let t0 = E.Engine.now eng in
        E.Engine.handover eng (fun k ->
            G.Interconnect.transfer_steps net ~src ~dst ~initiator ~bytes k);
        took := E.Time.sub (E.Engine.now eng) t0)
  in
  E.Engine.run eng;
  !took
