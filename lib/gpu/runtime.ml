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
let gpu_group g = Printf.sprintf "gpu%d" g

let bump t c =
  match t.obs with
  | None -> ()
  | Some o -> Mx.Counter.incr (c o)

(* Straggler multiplier on device [gpu]'s compute latencies (1.0 when the
   fault plan is absent or silent about the device). Callers scale costs
   only when a plan is present, keeping fault-free runs byte-identical. *)
let compute_scale t ~gpu = match t.faults with None -> 1.0 | Some p -> F.compute_scale p ~gpu

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

let endpoint_of_buffer b =
  let d = Buffer.device b in
  if d = Buffer.host_device then Interconnect.Host else Interconnect.Gpu d

(* Charge an API latency; the span label is built only when the engine
   records a trace. *)
let api_call t ?(lane = "host") ~label cost =
  bump t (fun o -> o.m_api_calls);
  let t0 = E.Engine.now t.eng in
  E.Engine.delay t.eng cost;
  match E.Engine.trace t.eng with
  | None -> ()
  | Some tr -> E.Trace.add tr ~lane ~label:(label ()) ~kind:E.Trace.Api ~t0 ~t1:(E.Engine.now t.eng)

let api t ?lane ~label cost = api_call t ?lane ~label:(fun () -> label) cost

let launch t ~stream ~name ?(cost = Time.zero) body =
  let dev = Stream.device stream in
  let cost = scaled_cost t ~gpu:(Device.id dev) cost in
  bump t (fun o -> o.m_launches);
  api_call t ~label:(fun () -> "launch:" ^ name) t.arch.Arch.kernel_launch;
  Stream.enqueue stream ~label:name (fun () ->
      let t0 = E.Engine.now t.eng in
      E.Engine.delay t.eng t.arch.Arch.kernel_teardown;
      E.Engine.delay t.eng cost;
      body ();
      match E.Engine.trace t.eng with
      | None -> ()
      | Some tr ->
        E.Trace.add tr
          ~lane:(Device.lane dev (Stream.name stream))
          ~label:name ~kind:E.Trace.Compute ~t0 ~t1:(E.Engine.now t.eng))

let memcpy_async t ~stream ~src ~src_pos ~dst ~dst_pos ~len =
  let dev = Stream.device stream in
  bump t (fun o -> o.m_stream_ops);
  api t ~label:"cudaMemcpyAsync" t.arch.Arch.memcpy_api;
  let src_ep = endpoint_of_buffer src and dst_ep = endpoint_of_buffer dst in
  Stream.enqueue stream ~label:"memcpy" (fun () ->
      let trace_lane =
        match E.Engine.trace t.eng with
        | None -> None
        | Some _ -> Some (Device.lane dev (Stream.name stream))
      in
      Interconnect.transfer t.net ~src:src_ep ~dst:dst_ep ~initiator:Interconnect.By_host
        ~bytes:(len * Buffer.elem_bytes) ?trace_lane ~label:"memcpy" ();
      Buffer.blit ~src ~src_pos ~dst ~dst_pos ~len)

let stream_synchronize t stream =
  bump t (fun o -> o.m_stream_ops);
  api_call t ~label:(fun () -> "sync:" ^ Stream.name stream) t.arch.Arch.stream_sync;
  Stream.await_idle stream

let event_record t ev stream =
  bump t (fun o -> o.m_stream_ops);
  api_call t ~label:(fun () -> "record:" ^ Event.name ev) t.arch.Arch.event_record;
  Event.record ev stream

let event_synchronize t ev =
  bump t (fun o -> o.m_stream_ops);
  api_call t ~label:(fun () -> "eventSync:" ^ Event.name ev) t.arch.Arch.event_sync;
  Event.synchronize ev

let stream_wait_event t stream ev =
  bump t (fun o -> o.m_stream_ops);
  api t ~label:"streamWaitEvent" t.arch.Arch.stream_wait_event;
  Event.stream_wait stream ev

let launch_cooperative t ~dev ~name ~blocks ~threads_per_block ~roles =
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
  api_call t ~label:(fun () -> "coopLaunch:" ^ name) t.arch.Arch.coop_launch;
  let grid =
    Coop.make t.eng ~dev ~roles:(List.length roles) ~total_blocks:blocks ~threads_per_block
  in
  let finished =
    E.Sync.Flag.create ~name:(Printf.sprintf "%s.gpu%d.done" name (Device.id dev)) t.eng 0
  in
  List.iter
    (fun (role_name, role_body) ->
      let (_ : E.Engine.process) =
        E.Engine.spawn t.eng
          ~name_of:(fun () -> Printf.sprintf "%s.gpu%d.%s" name (Device.id dev) role_name)
          ~group:(gpu_group (Device.id dev))
          (fun () ->
            E.Engine.delay t.eng t.arch.Arch.kernel_teardown;
            role_body grid;
            E.Sync.Flag.add finished 1)
      in
      ())
    roles;
  finished

let join_kernel _t ~roles finished = E.Sync.Flag.wait_ge finished roles
