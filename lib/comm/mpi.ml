module E = Cpufree_engine
module G = Cpufree_gpu
module Time = E.Time

type region = { buf : G.Buffer.t; pos : int; stride : int; count : int }

type request = { done_flag : E.Sync.Flag.t }

type posted = { reg : region; req : request }

(* Unmatched operations are queued per (src, dst, tag) channel; a newly
   posted operation that finds its counterpart starts the transfer. A
   channel is keyed by one int, so a lookup allocates no key. *)
type channel = { sends : posted Queue.t; recvs : posted Queue.t }

module Channels = Hashtbl.Make (Int)

type t = {
  ctx : G.Runtime.ctx;
  eng : E.Engine.t;
  n : int;
  channels : channel Channels.t;
  host_barrier : G.Host.barrier;
  mutable next_id : int;
}

let init ctx =
  let n = G.Runtime.num_gpus ctx in
  {
    ctx;
    eng = G.Runtime.engine ctx;
    n;
    channels = Channels.create 64;
    host_barrier = G.Host.barrier_create ctx ~parties:n;
    next_id = 0;
  }

let contiguous buf ~pos ~len = { buf; pos; stride = 1; count = len }
let type_vector buf ~pos ~stride ~count = { buf; pos; stride; count }

let check_rank t r op =
  if r < 0 || r >= t.n then invalid_arg (Printf.sprintf "Mpi.%s: no such rank %d" op r)

(* Both ranks are below [n], so [(tag, src, dst)] maps to one int and
   back. *)
let channel t ~src ~dst ~tag =
  let key = (((tag * t.n) + src) * t.n) + dst in
  match Channels.find_opt t.channels key with
  | Some c -> c
  | None ->
    let c = { sends = Queue.create (); recvs = Queue.create () } in
    Channels.add t.channels key c;
    c

(* A request's flag is named only when a diagnostic reads it. *)
let fresh_request t kind =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  {
    done_flag =
      E.Sync.Flag.create ~name_of:(fun () -> Printf.sprintf "mpi.%s.%d" kind id) t.eng 0;
  }

let region_bytes r = r.count * G.Buffer.elem_bytes
let region_strided r = r.stride <> 1

(* Matched pair: move the bytes (host-initiated path), apply the data, then
   complete both requests. Runs in its own process so neither host thread
   blocks at issue time (Isend/Irecv are non-blocking). *)
let start_transfer t ~src_rank ~dst_rank (send : posted) (recv : posted) =
  let arch = G.Runtime.arch t.ctx in
  let (_ : E.Engine.process) =
    E.Engine.spawn t.eng
      ~name_of:(fun () -> Printf.sprintf "mpi.msg.%d->%d" src_rank dst_rank)
      (fun () ->
        let lane =
          match E.Engine.trace t.eng with
          | None -> None
          | Some _ -> Some (Printf.sprintf "gpu%d.mpi" src_rank)
        in
        let strided = region_strided send.reg || region_strided recv.reg in
        if strided then begin
          (* Non-contiguous datatype from device memory: the MPI library
             packs/unpacks element-wise through a host staging buffer. *)
          let n = Stdlib.max send.reg.count recv.reg.count in
          E.Engine.delay t.eng (Time.scale arch.G.Arch.mpi_strided_elem (2.0 *. float_of_int n));
          G.Interconnect.transfer (G.Runtime.net t.ctx)
            ~src:(G.Runtime.endpoint_of_buffer send.reg.buf) ~dst:G.Interconnect.Host
            ~initiator:G.Interconnect.By_host ~bytes:(region_bytes send.reg) ?trace_lane:lane
            ~label:"mpi-pack" ();
          G.Interconnect.transfer (G.Runtime.net t.ctx) ~src:G.Interconnect.Host
            ~dst:(G.Runtime.endpoint_of_buffer recv.reg.buf) ~initiator:G.Interconnect.By_host
            ~bytes:(region_bytes send.reg) ?trace_lane:lane ~label:"mpi-unpack" ()
        end
        else
          G.Interconnect.transfer (G.Runtime.net t.ctx)
            ~src:(G.Runtime.endpoint_of_buffer send.reg.buf)
            ~dst:(G.Runtime.endpoint_of_buffer recv.reg.buf)
            ~initiator:G.Interconnect.By_host ~bytes:(region_bytes send.reg)
            ?trace_lane:lane ~label:"mpi-msg" ();
        let n = Stdlib.min send.reg.count recv.reg.count in
        G.Buffer.blit_strided ~src:send.reg.buf ~src_pos:send.reg.pos
          ~src_stride:send.reg.stride ~dst:recv.reg.buf ~dst_pos:recv.reg.pos
          ~dst_stride:recv.reg.stride ~count:n;
        E.Sync.Flag.set send.req.done_flag 1;
        E.Sync.Flag.set recv.req.done_flag 1)
  in
  ()

let overhead t = (G.Runtime.arch t.ctx).G.Arch.mpi_overhead

let isend t ~rank ~dst ~tag reg =
  check_rank t rank "isend";
  check_rank t dst "isend";
  E.Engine.delay t.eng (overhead t);
  let req = fresh_request t "send" in
  let c = channel t ~src:rank ~dst ~tag in
  (match Queue.take_opt c.recvs with
  | Some recv -> start_transfer t ~src_rank:rank ~dst_rank:dst { reg; req } recv
  | None -> Queue.push { reg; req } c.sends);
  req

let irecv t ~rank ~src ~tag reg =
  check_rank t rank "irecv";
  check_rank t src "irecv";
  E.Engine.delay t.eng (overhead t);
  let req = fresh_request t "recv" in
  let c = channel t ~src ~dst:rank ~tag in
  (match Queue.take_opt c.sends with
  | Some send -> start_transfer t ~src_rank:src ~dst_rank:rank send { reg; req }
  | None -> Queue.push { reg; req } c.recvs);
  req

let wait t req =
  E.Engine.delay t.eng (overhead t);
  E.Sync.Flag.wait_ge req.done_flag 1

let waitall t reqs =
  E.Engine.delay t.eng (overhead t);
  List.iter (fun r -> E.Sync.Flag.wait_ge r.done_flag 1) reqs

let test req = E.Sync.Flag.get req.done_flag >= 1
let barrier t ~rank:_ = G.Host.barrier_wait t.ctx t.host_barrier
