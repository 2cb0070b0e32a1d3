module E = Cpufree_engine
module F = Cpufree_fault.Fault
module Obs = Cpufree_obs
module Mx = Obs.Metrics
module Time = E.Time

(* Metrics instruments for the host API surface (when a registry is
   attached): launches, cooperative launches, stream-ordered operations and
   raw API calls. *)
type instr = {
  m_api_calls : Mx.Counter.h;
  m_launches : Mx.Counter.h;
  m_coop_launches : Mx.Counter.h;
  m_stream_ops : Mx.Counter.h;
}

type ctx = {
  eng : E.Engine.t;
  arch : Arch.t;
  n : int;
  net : Interconnect.t;
  devices : Device.t array;
  faults : F.plan option;
  metrics : Mx.t option;
  obs : instr option;
  after : Time.t -> (unit -> unit) -> unit; (* {!E.Engine.after} on [eng] *)
}

exception Coop_launch_error of string

let build eng ~arch ?topology ?faults ?metrics ~num_gpus () =
  if num_gpus <= 0 then invalid_arg "Runtime.create: need at least one GPU";
  let obs =
    match metrics with
    | None -> None
    | Some reg ->
      let c name = Mx.counter reg ~name () in
      Some
        {
          m_api_calls = c "runtime.api_calls";
          m_launches = c "runtime.launches";
          m_coop_launches = c "runtime.coop_launches";
          m_stream_ops = c "runtime.stream_ops";
        }
  in
  {
    eng;
    arch;
    n = num_gpus;
    net = Interconnect.create ?topology ?faults ?metrics eng ~arch ~num_gpus;
    devices = Array.init num_gpus (fun id -> Device.create eng ~arch ~id);
    faults;
    metrics;
    obs;
    after = E.Engine.after eng;
  }

let create eng ?(arch = Arch.a100_hgx) ?(env = Obs.Sim_env.default) ~num_gpus () =
  let faults =
    match env.Obs.Sim_env.faults with
    | None -> None
    | Some spec -> Some (F.activate spec ~seed:env.Obs.Sim_env.fault_seed ~gpus:num_gpus)
  in
  build eng ~arch ?topology:env.Obs.Sim_env.topology ?faults
    ?metrics:env.Obs.Sim_env.metrics ~num_gpus ()

let engine t = t.eng
let arch t = t.arch
let num_gpus t = t.n
let faults t = t.faults
let metrics t = t.metrics

(* Group tag for wait-for graphs: the model entity a process acts for. *)
let gpu_group t g =
  if g >= 0 && g < t.n then Device.group t.devices.(g) else Printf.sprintf "gpu%d" g

let bump t c =
  match t.obs with
  | None -> ()
  | Some o -> Mx.Counter.incr (c o)

(* [cost] times the straggler multiplier on device [gpu]'s compute
   latencies (1.0 when the fault plan is absent or silent about the
   device). Costs are scaled only when a plan is present, keeping
   fault-free runs byte-identical. *)
let scaled_cost t ~gpu cost =
  match t.faults with
  | None -> cost
  | Some p ->
    let s = F.compute_scale p ~gpu in
    if Float.equal s 1.0 then cost else Time.scale cost s

let device t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Runtime.device: no such GPU %d" i);
  t.devices.(i)

let net t = t.net

let endpoint_of_buffer t b =
  let d = Buffer.device b in
  if d = Buffer.host_device then Interconnect.Host else Interconnect.gpu t.net d

(* Every host API call is written as steps: called with the continuation
   to run once the call returns, it waits with {!E.Engine.after}. *)

(* An API call charges its latency, then records its span. Its label is
   [label arg], built only when the engine records a trace, so a call
   allocates no label closure. Without a trace there is no span to
   record, so the continuation is waited for as it is, with no closure
   around it. *)
let api_call_k t ~stream_op label arg cost k =
  if stream_op then bump t (fun o -> o.m_stream_ops);
  bump t (fun o -> o.m_api_calls);
  match E.Engine.trace t.eng with
  | None -> t.after cost k
  | Some tr ->
    let t0 = E.Engine.now t.eng in
    t.after cost (fun () ->
        E.Trace.add tr ~lane:"host" ~label:(label arg) ~kind:E.Trace.Api ~t0
          ~t1:(E.Engine.now t.eng);
        k ())

let launch_label name = "launch:" ^ name

(* A kernel as a stream op: it waits out its teardown and its cost, runs
   its body with the continuation that logs its compute interval (from
   when the stream started it) and ends the op. *)
let kernel_steps t ~stream ~name ~cost body finished =
  let t0 = E.Engine.now t.eng in
  let ran () =
    body (fun () ->
        E.Engine.log_compute t.eng ~since:t0 ~lane:(Stream.lane stream) ~label:name;
        finished ())
  in
  t.after t.arch.Arch.kernel_teardown (fun () -> t.after cost ran)

(* The host half counts the launch, scales its cost by the device's
   straggler multiplier and pays the launch latency. *)
let launch_k t ~stream ~name ~cost body k =
  bump t (fun o -> o.m_launches);
  let cost = scaled_cost t ~gpu:(Device.id (Stream.device stream)) cost in
  let kernel = kernel_steps t ~stream ~name ~cost body in
  api_call_k t ~stream_op:false launch_label name t.arch.Arch.kernel_launch (fun () ->
      Stream.enqueue_steps stream kernel;
      k ())

(* One [cudaMemcpyAsync]: made when the host calls it, it is also the
   state of the copy it queues on its stream, so each of the copy's steps
   is a closure over it alone. *)
type memcpy = {
  ctx : ctx;
  stream : Stream.t;
  src : Buffer.t;
  src_pos : int;
  dst : Buffer.t;
  dst_pos : int;
  len : int;
  mutable t0 : Time.t;  (* when its wire transfer started *)
  mutable landed : unit -> unit;  (* ends the stream op *)
}

let copied c =
  let t = c.ctx in
  let trace_lane =
    match E.Engine.trace t.eng with None -> None | Some _ -> Some (Lazy.force (Stream.lane c.stream))
  in
  Interconnect.transfer_landed t.net ~since:c.t0 ?trace_lane ~label:"memcpy" ();
  Buffer.blit ~src:c.src ~src_pos:c.src_pos ~dst:c.dst ~dst_pos:c.dst_pos ~len:c.len;
  c.landed ()

(* The copy as a stream op: its wire transfer, then the data. *)
let copy c landed =
  let t = c.ctx in
  c.landed <- landed;
  c.t0 <- E.Engine.now t.eng;
  t.after
    (Interconnect.start_transfer t.net ~src:(endpoint_of_buffer t c.src)
       ~dst:(endpoint_of_buffer t c.dst)
       ~initiator:Interconnect.By_host ~bytes:(c.len * Buffer.elem_bytes))
    (fun () -> copied c)

let memcpy_label () = "cudaMemcpyAsync"

let memcpy_async_k t ~stream ~src ~src_pos ~dst ~dst_pos ~len k =
  let c = { ctx = t; stream; src; src_pos; dst; dst_pos; len; t0 = Time.zero; landed = ignore } in
  api_call_k t ~stream_op:true memcpy_label () t.arch.Arch.memcpy_api (fun () ->
      Stream.enqueue_steps stream (fun landed -> copy c landed);
      k ())

let sync_label stream = "sync:" ^ Stream.name stream

let stream_synchronize_k t stream k =
  api_call_k t ~stream_op:true sync_label stream t.arch.Arch.stream_sync (fun () ->
      Stream.await_idle_k stream k)

let coop_label name = "coopLaunch:" ^ name

(* The host half checks the grid, counts the launch and pays its cost;
   then each role runs as its own step process after its teardown delay,
   and the continuation gets the kernel's completion flag. *)
let launch_cooperative_k t ~dev ~name ~blocks ~threads_per_block ~roles k =
  if roles = [] then raise (Coop_launch_error (name ^ ": no roles"));
  let capacity = Device.co_resident_blocks dev in
  if blocks > capacity then
    raise
      (Coop_launch_error
         (Printf.sprintf
            "%s: %d blocks requested but only %d can be co-resident on gpu%d \
             (cooperative launch forbids oversubscription)"
            name blocks capacity (Device.id dev)));
  bump t (fun o -> o.m_coop_launches);
  api_call_k t ~stream_op:false coop_label name t.arch.Arch.coop_launch (fun () ->
      let grid =
        Coop.make t.eng ~dev ~roles:(List.length roles) ~total_blocks:blocks ~threads_per_block
      in
      let finished =
        E.Sync.Flag.create
          ~name_of:(fun () -> Printf.sprintf "%s.gpu%d.done" name (Device.id dev))
          t.eng 0
      in
      List.iter
        (fun (role_name, role) ->
          let (_ : E.Engine.process) =
            E.Engine.spawn_callbacks t.eng
              ~name_of:(fun () -> Printf.sprintf "%s.gpu%d.%s" name (Device.id dev) role_name)
              ~group:(gpu_group t (Device.id dev))
              (fun () ->
                t.after t.arch.Arch.kernel_teardown (fun () ->
                    role grid (fun () -> E.Sync.Flag.add finished 1)))
          in
          ())
        roles;
      k finished)
