module G = Cpufree_gpu

let endpoint dev = if dev = G.Buffer.host_device then G.Interconnect.Host else G.Interconnect.Gpu dev

(* The span lane, built only when the engine records a trace. *)
let lane ctx dev =
  match Cpufree_engine.Engine.trace (G.Runtime.engine ctx) with
  | None -> None
  | Some _ -> Some (Printf.sprintf "gpu%d.p2p" dev)

let copy_k ctx ~from_dev ~src ~src_pos ~dst ~dst_pos ~len k =
  G.Interconnect.transfer_steps (G.Runtime.net ctx) ~src:(endpoint from_dev)
    ~dst:(endpoint (G.Buffer.device dst))
    ~initiator:G.Interconnect.By_device
    ~bytes:(len * G.Buffer.elem_bytes)
    ?trace_lane:(lane ctx from_dev)
    ~label:"p2p-store"
    (fun () ->
      G.Buffer.blit ~src ~src_pos ~dst ~dst_pos ~len;
      k ())
