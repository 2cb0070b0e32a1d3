module E = Cpufree_engine
module G = Cpufree_gpu
module F = Cpufree_fault.Fault
module Mx = Cpufree_obs.Metrics
module Time = E.Time

type sym = { bufs : G.Buffer.t array }
type signal = { glabel : string; flags : E.Sync.Flag.t array }
type signal_op = Signal_set | Signal_add

(* Metrics instruments (when the runtime context carries a registry):
   per-source-PE put/byte counters plus run totals for signal traffic,
   blocked-wait time and fault-path events. *)
type instr = {
  m_puts : Mx.Counter.h array; (* indexed by source PE *)
  m_put_bytes : Mx.Counter.h array;
  m_signal_ops : Mx.Counter.h;
  m_signal_waits : Mx.Counter.h;
  m_wait_blocked : Mx.Histogram.h; (* ns a signal wait actually spun *)
  m_retries : Mx.Counter.h;
  m_resends : Mx.Counter.h;
  m_drops : Mx.Counter.h;
}

type t = {
  ctx : G.Runtime.ctx;
  eng : E.Engine.t;
  n : int;
  pending : E.Sync.Flag.t array;  (* outstanding nbi deliveries per PE *)
  barrier : E.Sync.Barrier.t;
  faults : F.plan option;  (* the runtime context's plan, if any *)
  obs : instr option;
  op_seq : int array;  (* per-PE issue counter for deterministic flow ids *)
  mutable next_op : int;
  lanes : string option array;  (* per-PE "gpuN.nvshmem" trace lane, built on first use *)
  after : Time.t -> (unit -> unit) -> unit;  (* the asynchronous deliveries' [wait] *)
  retire : (unit -> unit) array;  (* per PE: a delivery's last act, draining [pending] *)
}

let init ctx =
  let eng = G.Runtime.engine ctx in
  let n = G.Runtime.num_gpus ctx in
  let obs =
    match G.Runtime.metrics ctx with
    | None -> None
    | Some reg ->
      let per_pe name =
        Array.init n (fun pe -> Mx.counter reg ~name ~labels:[ ("pe", string_of_int pe) ] ())
      in
      Some
        {
          m_puts = per_pe "nvshmem.puts";
          m_put_bytes = per_pe "nvshmem.put_bytes";
          m_signal_ops = Mx.counter reg ~name:"nvshmem.signal_ops" ();
          m_signal_waits = Mx.counter reg ~name:"nvshmem.signal_waits" ();
          m_wait_blocked = Mx.histogram reg ~name:"nvshmem.wait_blocked_ns" ();
          m_retries = Mx.counter reg ~name:"nvshmem.retries" ();
          m_resends = Mx.counter reg ~name:"nvshmem.resends" ();
          m_drops = Mx.counter reg ~name:"nvshmem.drops" ();
        }
  in
  let pending =
    Array.init n (fun i -> E.Sync.Flag.create ~name:(Printf.sprintf "pe%d.pending" i) eng 0)
  in
  {
    ctx;
    eng;
    n;
    pending;
    barrier = E.Sync.Barrier.create ~name:"nvshmem.barrier_all" eng n;
    faults = G.Runtime.faults ctx;
    obs;
    op_seq = Array.make n 0;
    next_op = 0;
    lanes = Array.make n None;
    after = E.Engine.after eng;
    retire = Array.map (fun flag () -> E.Sync.Flag.add flag (-1)) pending;
  }

let bump t sel = match t.obs with None -> () | Some o -> Mx.Counter.incr (sel o)

let note_put t ~from_pe ~bytes =
  match t.obs with
  | None -> ()
  | Some o ->
    Mx.Counter.incr o.m_puts.(from_pe);
    Mx.Counter.add o.m_put_bytes.(from_pe) bytes

let count_resends t k = match t.obs with None -> () | Some o -> Mx.Counter.add o.m_resends k

(* Lost-delivery registry keys: a dropped put+signal is filed under the
   destination flag instance its arrival would have raised (that flag's
   resilient waiter recovers it); a dropped plain put under the sender,
   whose [quiet] fence recovers it. *)
let sig_key sig_var ~to_pe = Printf.sprintf "sig:%s@pe%d" sig_var.glabel to_pe
let put_key ~from_pe = Printf.sprintf "put:pe%d" from_pe

let n_pes t = t.n

let check_pe t pe op =
  if pe < 0 || pe >= t.n then invalid_arg (Printf.sprintf "Nvshmem.%s: no such PE %d" op pe)

let sym_malloc t ~label ?phantom elems =
  {
    bufs =
      Array.init t.n (fun pe ->
          G.Buffer.create ?phantom ~device:pe ~label:(Printf.sprintf "%s@pe%d" label pe) elems);
  }

let local s ~pe =
  if pe < 0 || pe >= Array.length s.bufs then
    invalid_arg (Printf.sprintf "Nvshmem.local: no such PE %d" pe);
  s.bufs.(pe)

let signal_malloc t ~label () =
  {
    glabel = label;
    flags =
      Array.init t.n (fun pe ->
          E.Sync.Flag.create ~name:(Printf.sprintf "%s@pe%d" label pe) t.eng 0);
  }

let signal_read s ~pe = E.Sync.Flag.get s.flags.(pe)

let arch t = G.Runtime.arch t.ctx
let net t = G.Runtime.net t.ctx

let issue_overhead t = (arch t).G.Arch.nvshmem_put_overhead

let apply_signal sig_var pe op v =
  let flag = sig_var.flags.(pe) in
  match op with
  | Signal_set -> E.Sync.Flag.set flag v
  | Signal_add -> E.Sync.Flag.add flag v

(* A delivery is written once as a chain of steps over [wait d k] ("run
   [k] [d] later"), and driven two ways:

   - asynchronously, as a fiberless process whose [wait] is
     {!E.Engine.after}. Each [wait] pushes its event where a fiber's
     [delay] would, so events, their order and every diagnostic stay as a
     fiber-per-delivery engine had them;
   - directly, inside a fiber that replays a lost delivery (a recovering
     waiter or a [quiet] fence), whose [wait] is a plain [delay]. *)
type steps = wait:(Time.t -> (unit -> unit) -> unit) -> (unit -> unit) -> unit

let direct t (steps : steps) () =
  steps ~wait:(fun d k -> E.Engine.delay t.eng d; k ()) ignore

(* Run a delivery asynchronously on behalf of [from_pe], tracking it in the
   PE's outstanding-op counter so that quiet/barrier can drain it. The
   process name is formatted only if a diagnostic asks for it. *)
let deliver_async t ~from_pe ~label (steps : steps) =
  E.Sync.Flag.add t.pending.(from_pe) 1;
  t.next_op <- t.next_op + 1;
  let op = t.next_op in
  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks t.eng
      ~name_of:(fun () -> Printf.sprintf "nvshmem.%s.pe%d.%d" label from_pe op)
      (fun () -> steps ~wait:t.after t.retire.(from_pe))
  in
  ()

let lane_opt t pe =
  match t.lanes.(pe) with
  | Some _ as l -> l
  | None ->
    let l = Some (G.Device.lane (G.Runtime.device t.ctx pe) "nvshmem") in
    t.lanes.(pe) <- l;
    l

let lane t pe = Option.get (lane_opt t pe)

(* The lane a transfer records its span on: none when the engine keeps no
   trace, so untraced runs never build one. *)
let trace_lane t pe = match E.Engine.trace t.eng with None -> None | Some _ -> lane_opt t pe

(* Flow-arrow context drawn at issue time, when the trace records flows:
   a deterministic id unique across PEs in sender program order (issue
   index interleaved with the source PE), plus the departure coordinates.
   The per-PE sequence only advances when flows are on, so legacy runs
   stay byte-identical. *)
let flow_ctx t ~from_pe =
  if not (E.Trace.flows_enabled (E.Engine.trace t.eng)) then None
  else begin
    let fid = (t.op_seq.(from_pe) * t.n) + from_pe in
    t.op_seq.(from_pe) <- t.op_seq.(from_pe) + 1;
    Some (fid, lane t from_pe, E.Engine.now t.eng)
  end

(* Wrap a delivery so its remote arrival is traced as a span on the
   destination's nvshmem lane and tied back to the issuing put by a flow
   arrow, whichever driver runs it. *)
let with_flow t fc ~to_pe ~label (body : steps) : steps =
  match fc with
  | None -> body
  | Some (fid, src_lane, src_t) ->
    fun ~wait k ->
      let d0 = E.Engine.now t.eng in
      body ~wait (fun () ->
          let d1 = E.Engine.now t.eng in
          E.Engine.log_comm t.eng ~since:d0;
          let tr = E.Engine.trace t.eng in
          E.Trace.add_opt tr ~lane:(lane t to_pe) ~label:("deliver:" ^ label)
            ~kind:E.Trace.Communication ~t0:d0 ~t1:d1;
          E.Trace.add_flow_opt tr ~id:fid ~label ~src_lane ~src_t ~dst_lane:(lane t to_pe)
            ~dst_t:d1;
          k ())

let mark_fault t ~pe ~label =
  let tr = E.Engine.trace t.eng in
  if E.Trace.flows_enabled tr then
    E.Trace.add_instant_opt tr ~lane:(lane t pe) ~label ~at:(E.Engine.now t.eng)

(* A device-initiated wire transfer as steps. *)
let transfer t ~from_pe ~to_pe ~bytes ~label ~wait k =
  G.Interconnect.transfer_steps (net t) ~src:(G.Interconnect.Gpu from_pe)
    ~dst:(G.Interconnect.Gpu to_pe) ~initiator:G.Interconnect.By_device ~bytes
    ?trace_lane:(trace_lane t from_pe) ~label ~wait k

(* One fabric delivery: wire transfer, data commit, then any attached
   signal — NVSHMEM's data-before-signal order, preserved verbatim when a
   recovery replays the delivery. *)
let delivery t ~from_pe ~to_pe ~bytes ~label ~commit ~signal_after : steps =
 fun ~wait k ->
  transfer t ~from_pe ~to_pe ~bytes ~label ~wait (fun () ->
      commit ();
      match signal_after with
      | None -> k ()
      | Some (sig_var, sig_op, sig_value) ->
        wait (arch t).G.Arch.nvshmem_signal (fun () ->
            apply_signal sig_var to_pe sig_op sig_value;
            k ()))

(* A fate's extra fabric delay ahead of the delivery itself. *)
let delayed d (deliver : steps) : steps = fun ~wait k -> wait d (fun () -> deliver ~wait k)

let nothing_left : steps = fun ~wait:_ k -> k ()

(* The fate of the sender's next delivery, drawn (deterministically, in the
   sender's program order) at issue time. *)
let draw_fate t ~from_pe =
  match t.faults with None -> F.Deliver | Some plan -> F.delivery_fate plan ~from_pe

(* Fail-stop: whether the issuing PE's scheduled death has passed. A dead
   PE initiates nothing — its puts and signal updates are suppressed before
   any cost, fate draw or registry entry, so to every peer it simply goes
   silent (the resilient waiter diagnoses it from the schedule). A pure
   function of (spec, now), so deterministic; false
   without fail-stop clauses, keeping those runs byte-identical. *)
let sender_dead t ~pe =
  match t.faults with
  | None -> false
  | Some plan ->
    let spec = F.spec_of plan in
    F.has_failstop spec && F.dead spec ~pe ~now:(E.Engine.now t.eng)

let put_common t ~from_pe ~to_pe ~bytes ~label ~commit ~signal_after =
  check_pe t from_pe "put";
  check_pe t to_pe "put";
  if sender_dead t ~pe:from_pe then ()
  else begin
  E.Engine.delay t.eng (issue_overhead t);
  note_put t ~from_pe ~bytes;
  let fc = flow_ctx t ~from_pe in
  let fate = draw_fate t ~from_pe in
  let deliver =
    with_flow t fc ~to_pe ~label
      (delivery t ~from_pe ~to_pe ~bytes ~label ~commit ~signal_after)
  in
  match fate with
  | F.Deliver -> deliver_async t ~from_pe ~label deliver
  | F.Delayed d -> deliver_async t ~from_pe ~label (delayed d deliver)
  | F.Dropped ->
    (* The fabric loses the packet: neither data nor signal arrives. The
       sender's queue slot still drains (so quiet on an unrelated path
       does not hang forever on a ghost op) and the delivery is filed for
       retransmission by whoever waits on what it carried. *)
    bump t (fun o -> o.m_drops);
    mark_fault t ~pe:from_pe ~label:("fault:drop:" ^ label);
    let plan = Option.get t.faults in
    let key =
      match signal_after with
      | Some (sig_var, _, _) -> sig_key sig_var ~to_pe
      | None -> put_key ~from_pe
    in
    F.record_lost plan ~key
      (direct t
         (with_flow t fc ~to_pe ~label
            (delivery t ~from_pe ~to_pe ~bytes ~label:(label ^ ".resend") ~commit ~signal_after)));
    deliver_async t ~from_pe ~label nothing_left
  end

let putmem_nbi t ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len =
  let dst_buf = local dst ~pe:to_pe in
  put_common t ~from_pe ~to_pe
    ~bytes:(len * G.Buffer.elem_bytes)
    ~label:"putmem_nbi"
    ~commit:(fun () -> G.Buffer.blit ~src ~src_pos ~dst:dst_buf ~dst_pos ~len)
    ~signal_after:None

let putmem_signal_nbi t ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len ~sig_var ~sig_op
    ~sig_value =
  let dst_buf = local dst ~pe:to_pe in
  put_common t ~from_pe ~to_pe
    ~bytes:(len * G.Buffer.elem_bytes)
    ~label:"putmem_signal_nbi"
    ~commit:(fun () -> G.Buffer.blit ~src ~src_pos ~dst:dst_buf ~dst_pos ~len)
    ~signal_after:(Some (sig_var, sig_op, sig_value))

let iput_nbi t ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride ~count =
  check_pe t from_pe "iput";
  check_pe t to_pe "iput";
  if sender_dead t ~pe:from_pe then ()
  else begin
  E.Engine.delay t.eng (issue_overhead t);
  note_put t ~from_pe ~bytes:(count * G.Buffer.elem_bytes);
  let a = arch t in
  let dst_buf = local dst ~pe:to_pe in
  let fc = flow_ctx t ~from_pe in
  let deliver =
    with_flow t fc ~to_pe ~label:"iput" (fun ~wait k ->
        (* Element-wise remote stores: serialization plus a per-element
           non-coalescing penalty on top of the port booking. *)
        wait (Time.scale a.G.Arch.nvshmem_strided_elem (float_of_int count)) (fun () ->
            transfer t ~from_pe ~to_pe ~bytes:(count * G.Buffer.elem_bytes) ~label:"iput" ~wait
              (fun () ->
                G.Buffer.blit_strided ~src ~src_pos ~src_stride ~dst:dst_buf ~dst_pos ~dst_stride
                  ~count;
                k ())))
  in
  match draw_fate t ~from_pe with
  | F.Deliver -> deliver_async t ~from_pe ~label:"iput_nbi" deliver
  | F.Delayed d -> deliver_async t ~from_pe ~label:"iput_nbi" (delayed d deliver)
  | F.Dropped ->
    bump t (fun o -> o.m_drops);
    mark_fault t ~pe:from_pe ~label:"fault:drop:iput";
    F.record_lost (Option.get t.faults) ~key:(put_key ~from_pe) (direct t deliver);
    deliver_async t ~from_pe ~label:"iput_nbi" nothing_left
  end

let p t ~from_pe ~to_pe ~value ~dst ~dst_pos =
  check_pe t from_pe "p";
  check_pe t to_pe "p";
  if sender_dead t ~pe:from_pe then ()
  else begin
  E.Engine.delay t.eng (issue_overhead t);
  note_put t ~from_pe ~bytes:G.Buffer.elem_bytes;
  G.Interconnect.transfer (net t) ~src:(G.Interconnect.Gpu from_pe)
    ~dst:(G.Interconnect.Gpu to_pe) ~initiator:G.Interconnect.By_device
    ~bytes:G.Buffer.elem_bytes ?trace_lane:(trace_lane t from_pe) ~label:"p" ();
  G.Buffer.set (local dst ~pe:to_pe) dst_pos value
  end

let quiet t ~pe =
  check_pe t pe "quiet";
  E.Sync.Flag.wait_until t.pending.(pe) (fun v -> v = 0);
  (* The fence knows its plain (signal-less) puts never completed — the
     NIC reports undelivered queue slots — so it retransmits them before
     declaring the PE quiet, charging itself the wire time. *)
  match t.faults with
  | None -> ()
  | Some plan -> (
    match F.recover_lost plan ~key:(put_key ~from_pe:pe) with
    | [] -> ()
    | lost ->
      F.note_resent plan (List.length lost);
      count_resends t (List.length lost);
      mark_fault t ~pe ~label:"fault:resend:quiet";
      List.iter (fun resend -> resend ()) lost)

(* Wire latency a fabric signal rides: the routed path between the PEs (the
   NVLink hop on a single switch, NIC + IB on an inter-node pair); a PE
   signalling itself still loops through the fabric at the cheapest pair
   latency, as the flat model charged. *)
let signal_wire t ~from_pe ~to_pe =
  let net = net t in
  if from_pe = to_pe then G.Interconnect.min_gpu_wire_latency net
  else
    G.Interconnect.wire_latency net ~src:(G.Interconnect.Gpu from_pe)
      ~dst:(G.Interconnect.Gpu to_pe)

let signal_op_remote t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value =
  check_pe t from_pe "signal_op";
  check_pe t to_pe "signal_op";
  if sender_dead t ~pe:from_pe then ()
  else begin
  (* Ordered after prior puts from this PE: fence by waiting for them. *)
  quiet t ~pe:from_pe;
  bump t (fun o -> o.m_signal_ops);
  let a = arch t in
  let wire () =
    E.Engine.delay t.eng
      (Time.add
         (G.Interconnect.fault_hold (net t) ~src:(G.Interconnect.Gpu from_pe)
            ~dst:(G.Interconnect.Gpu to_pe))
         (Time.add a.G.Arch.gpu_initiated_latency
            (Time.add (signal_wire t ~from_pe ~to_pe) a.G.Arch.nvshmem_signal)))
  in
  match draw_fate t ~from_pe with
  | F.Deliver ->
    wire ();
    apply_signal sig_var to_pe sig_op sig_value
  | F.Delayed d ->
    wire ();
    E.Engine.delay t.eng d;
    apply_signal sig_var to_pe sig_op sig_value
  | F.Dropped ->
    (* The update vanishes in the fabric; the issue cost was paid. File it
       for the destination's resilient waiter. *)
    bump t (fun o -> o.m_drops);
    mark_fault t ~pe:from_pe ~label:"fault:drop:signal_op";
    F.record_lost (Option.get t.faults)
      ~key:(sig_key sig_var ~to_pe)
      (fun () ->
        wire ();
        apply_signal sig_var to_pe sig_op sig_value)
  end

(* Timeout/retry/resend wait (fault runs only): each timeout first asks the
   fabric to retransmit any delivery lost on the way to this flag, then
   backs off; a wait that exhausts its retries raises a fully diagnosed
   {!Cpufree_engine.Engine.Stall} instead of spinning forever. *)
let resilient_wait t ~pe ~waits_on ~plan ~sig_var pred =
  let spec = F.spec_of plan in
  let flag = sig_var.flags.(pe) in
  let key = sig_key sig_var ~to_pe:pe in
  let started = E.Engine.now t.eng in
  let rec attempt retries timeout =
    let deadline = Time.add (E.Engine.now t.eng) timeout in
    match E.Sync.Flag.await ?waits_on flag ~deadline pred with
    | `Ok -> ()
    | `Timeout -> (
      match F.recover_lost plan ~key with
      | [] -> (
        (* Nothing to replay. Before pacing another retry, consult the
           fail-stop schedule: a peer whose death has passed will never
           supply this signal, so retrying is futile — diagnose the kill
           instead. The check is a pure function of (spec, now), making
           the detection round deterministic; without fail-stop clauses it
           is compiled out of the path entirely. *)
        match
          if F.has_failstop spec then F.killed_by spec ~now:(E.Engine.now t.eng) else []
        with
        | (dead_pe, at) :: _ as dead ->
          List.iter (fun (dpe, dat) -> F.note_obituary plan ~pe:dpe ~at:dat) dead;
          mark_fault t ~pe ~label:(Printf.sprintf "fault:kill:pe%d" dead_pe);
          raise (F.Killed { pe = dead_pe; at })
        | [] ->
        if retries >= spec.F.max_retries then
          raise
            (E.Engine.Stall
               (E.Engine.stall_report t.eng
                  ~trigger:
                    (Printf.sprintf
                       "signal %s@pe%d: %d retries exhausted after %s (value %d)"
                       sig_var.glabel pe retries
                       (Time.to_string (Time.sub (E.Engine.now t.eng) started))
                       (E.Sync.Flag.get flag))))
        else begin
          F.note_retry plan;
          bump t (fun o -> o.m_retries);
          mark_fault t ~pe ~label:("fault:retry:" ^ sig_var.glabel);
          attempt (retries + 1) (Time.scale timeout spec.F.backoff)
        end)
      | lost ->
        (* Replay lost deliveries — data first, then signal, as the
           originals would have arrived — charging the retransmission
           wire time to the recovering waiter. *)
        F.note_resent plan (List.length lost);
        count_resends t (List.length lost);
        mark_fault t ~pe ~label:("fault:resend:" ^ sig_var.glabel);
        List.iter (fun resend -> resend ()) lost;
        F.note_retry plan;
        bump t (fun o -> o.m_retries);
        attempt (retries + 1) (Time.scale timeout spec.F.backoff))
  in
  attempt 0 spec.F.retry_timeout

let signal_wait_until t ?expect_from ~pe ~sig_var pred =
  check_pe t pe "signal_wait";
  bump t (fun o -> o.m_signal_waits);
  let flag = sig_var.flags.(pe) in
  let blocked = not (pred (E.Sync.Flag.get flag)) in
  let t0 = E.Engine.now t.eng in
  let waits_on =
    match expect_from with None -> None | Some g -> Some (G.Runtime.gpu_group t.ctx g)
  in
  (match t.faults with
  | Some plan when blocked && F.is_active (F.spec_of plan) ->
    resilient_wait t ~pe ~waits_on ~plan ~sig_var pred
  | Some _ | None -> E.Sync.Flag.wait_until ?waits_on flag pred);
  (* A wait that actually spun pays the remote-write detection latency. *)
  if blocked then begin
    E.Engine.delay t.eng (arch t).G.Arch.nvshmem_wait_latency;
    match t.obs with
    | None -> ()
    | Some o ->
      Mx.Histogram.observe o.m_wait_blocked
        (Time.to_ns (Time.sub (E.Engine.now t.eng) t0))
  end

let signal_wait_ge t ?expect_from ~pe ~sig_var v =
  signal_wait_until t ?expect_from ~pe ~sig_var (fun x -> x >= v)

let barrier_all t ~pe =
  check_pe t pe "barrier_all";
  quiet t ~pe;
  let a = arch t in
  (* A fabric-wide barrier must cover the machine's worst routed GPU pair —
     on a single switch that is the NVLink hop (as the flat model charged);
     on a cluster it is the inter-node path. *)
  E.Engine.delay t.eng
    (Time.add (G.Interconnect.max_gpu_wire_latency (net t)) a.G.Arch.nvshmem_signal);
  E.Sync.Barrier.wait t.barrier

let pending t ~pe =
  check_pe t pe "pending";
  E.Sync.Flag.get t.pending.(pe)
