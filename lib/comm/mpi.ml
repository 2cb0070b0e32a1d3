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
  mutable next_id : int;
  after : Time.t -> (unit -> unit) -> unit; (* {!E.Engine.after} on [eng] *)
}

let init ctx =
  let n = G.Runtime.num_gpus ctx in
  {
    ctx;
    eng = G.Runtime.engine ctx;
    n;
    channels = Channels.create 64;
    next_id = 0;
    after = E.Engine.after (G.Runtime.engine ctx);
  }

let contiguous buf ~pos ~len = { buf; pos; stride = 1; count = len }

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

(* One leg of a message: a host-initiated transfer, waited for as steps. *)
let leg t ~trace_lane ~bytes ~src ~dst ~label k =
  G.Interconnect.transfer_steps (G.Runtime.net t.ctx) ~src ~dst ~initiator:G.Interconnect.By_host
    ~bytes ?trace_lane ~label k

(* The message has landed: apply the data, then complete both requests. *)
let delivered (send : posted) (recv : posted) () =
  let n = Stdlib.min send.reg.count recv.reg.count in
  G.Buffer.blit_strided ~src:send.reg.buf ~src_pos:send.reg.pos ~src_stride:send.reg.stride
    ~dst:recv.reg.buf ~dst_pos:recv.reg.pos ~dst_stride:recv.reg.stride ~count:n;
  E.Sync.Flag.set send.req.done_flag 1;
  E.Sync.Flag.set recv.req.done_flag 1

(* Matched pair: move the bytes (host-initiated path), then deliver. Runs
   as its own process of steps so neither host thread blocks at issue time
   (Isend/Irecv are non-blocking). *)
let start_transfer t ~src_rank ~dst_rank (send : posted) (recv : posted) =
  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks t.eng
      ~name_of:(fun () -> Printf.sprintf "mpi.msg.%d->%d" src_rank dst_rank)
      (fun () ->
        let trace_lane =
          match E.Engine.trace t.eng with
          | None -> None
          | Some _ -> Some (Printf.sprintf "gpu%d.mpi" src_rank)
        in
        let bytes = region_bytes send.reg in
        let src = G.Runtime.endpoint_of_buffer t.ctx send.reg.buf in
        let dst = G.Runtime.endpoint_of_buffer t.ctx recv.reg.buf in
        if region_strided send.reg || region_strided recv.reg then
          (* Non-contiguous datatype from device memory: the MPI library
             packs/unpacks element-wise through a host staging buffer. *)
          let n = Stdlib.max send.reg.count recv.reg.count in
          let per_elem = (G.Runtime.arch t.ctx).G.Arch.mpi_strided_elem in
          t.after (Time.scale per_elem (2.0 *. float_of_int n)) (fun () ->
              leg t ~trace_lane ~bytes ~src ~dst:G.Interconnect.Host ~label:"mpi-pack" (fun () ->
                  leg t ~trace_lane ~bytes ~src:G.Interconnect.Host ~dst ~label:"mpi-unpack"
                    (delivered send recv)))
        else leg t ~trace_lane ~bytes ~src ~dst ~label:"mpi-msg" (delivered send recv))
  in
  ()

let overhead t = (G.Runtime.arch t.ctx).G.Arch.mpi_overhead

type side = Send | Recv

(* A posted operation, once its overhead is paid: a send matches the
   oldest receive queued on its channel and a receive the oldest send, and
   the pair starts its transfer; with no counterpart it queues. *)
let post t side ~src ~dst ~tag mine =
  let c = channel t ~src ~dst ~tag in
  let theirs, ours = match side with Send -> (c.recvs, c.sends) | Recv -> (c.sends, c.recvs) in
  match Queue.take_opt theirs with
  | None -> Queue.push mine ours
  | Some peer ->
    let send, recv = match side with Send -> (mine, peer) | Recv -> (peer, mine) in
    start_transfer t ~src_rank:src ~dst_rank:dst send recv

(* The request is made when the call is, and the operation posted once its
   overhead is paid. Every call pays the same overhead, so requests are
   numbered in the order they are posted. *)
let call t side ~src ~dst ~tag reg k =
  let req = fresh_request t (match side with Send -> "send" | Recv -> "recv") in
  t.after (overhead t) (fun () ->
      post t side ~src ~dst ~tag { reg; req };
      k ());
  req

let isend_k t ~rank ~dst ~tag reg k =
  check_rank t rank "isend";
  check_rank t dst "isend";
  call t Send ~src:rank ~dst ~tag reg k

let irecv_k t ~rank ~src ~tag reg k =
  check_rank t rank "irecv";
  check_rank t src "irecv";
  call t Recv ~src ~dst:rank ~tag reg k

(* A request already complete is passed at once: its wait would not
   block. *)
let rec wait_each reqs k =
  match reqs with
  | [] -> k ()
  | r :: rest ->
    if E.Sync.Flag.get r.done_flag >= 1 then wait_each rest k
    else E.Sync.Flag.wait_ge_k r.done_flag 1 (fun () -> wait_each rest k)

let waitall_k t reqs k = t.after (overhead t) (fun () -> wait_each reqs k)
