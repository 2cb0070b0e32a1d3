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
    Array.init n (fun i ->
        E.Sync.Flag.create ~name_of:(fun () -> Printf.sprintf "pe%d.pending" i) eng 0)
  in
  {
    ctx;
    eng;
    n;
    pending;
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

(* Lost-delivery registry keys: a dropped put+signal is filed under the
   destination flag instance its arrival would have raised (that flag's
   resilient waiter recovers it); a dropped plain put under the sender,
   whose [quiet] fence recovers it. *)
let sig_key sig_var ~to_pe = Printf.sprintf "sig:%s@pe%d" sig_var.glabel to_pe
let put_key ~from_pe = Printf.sprintf "put:pe%d" from_pe

let n_pes t = t.n
let engine t = t.eng

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
          E.Sync.Flag.create ~name_of:(fun () -> Printf.sprintf "%s@pe%d" label pe) t.eng 0);
  }

let arch t = G.Runtime.arch t.ctx
let net t = G.Runtime.net t.ctx

let issue_overhead t = (arch t).G.Arch.nvshmem_put_overhead

let apply_signal sig_var pe op v =
  let flag = sig_var.flags.(pe) in
  match op with
  | Signal_set -> E.Sync.Flag.set flag v
  | Signal_add -> E.Sync.Flag.add flag v

(* Every operation is written as steps over {!E.Engine.after} and the [_k]
   waits of {!E.Sync}: called with a continuation, it runs it when it is
   over. A delivery runs asynchronously as a step process, or is
   replayed inside a recovering waiter (a resilient signal wait or a
   [quiet] fence) when the fabric lost it. *)
type steps = (unit -> unit) -> unit

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

let mark_fault t ~pe ~label =
  let tr = E.Engine.trace t.eng in
  if E.Trace.flows_enabled tr then
    E.Trace.add_instant_opt tr ~lane:(lane t pe) ~label ~at:(E.Engine.now t.eng)

(* What a non-blocking put's delivery adds to the wire transfer: nothing
   (a plain put), a signal update once the data has landed (a put+signal),
   or a per-element non-coalescing penalty paid first (a strided put). *)
type kind = Plain | Signalled | Strided

(* A delivery process and its spans and flows take the call's name, and a
   replay's transfer span adds [.resend]; a strided put's spans and
   replays are all [iput]. *)
let proc_name = function
  | Plain -> "putmem_nbi" | Signalled -> "putmem_signal_nbi" | Strided -> "iput_nbi"

let span_label = function Strided -> "iput" | (Plain | Signalled) as kind -> proc_name kind

let resend_label = function
  | Plain -> "putmem_nbi.resend" | Signalled -> "putmem_signal_nbi.resend" | Strided -> "iput"

(* One non-blocking put: made when it is called, it is also the state of
   its delivery, which runs as the steps below — asynchronously as its own
   process, or replayed inside a recovering waiter when the fabric lost
   it. Only a put+signal has a signal (any other put carries
   [no_signal]); a strided put moves [len] elements at its strides, any
   other [len] contiguous ones. *)
type put = {
  nv : t;
  kind : kind;
  from_pe : int;
  to_pe : int;
  src : G.Buffer.t;
  src_pos : int;
  src_stride : int;
  dst : G.Buffer.t;
  dst_pos : int;
  dst_stride : int;
  len : int;
  sig_var : signal;
  sig_op : signal_op;
  sig_value : int;
  mutable op : int;  (* the delivery process's number, for its name *)
  mutable flow : (int * string * Time.t) option;  (* [flow_ctx] at issue *)
  mutable resent : bool;  (* a replay: its transfer span says so *)
  mutable since : Time.t;  (* when the delivery started *)
  mutable t0 : Time.t;  (* when its wire transfer started *)
  mutable k : unit -> unit;  (* what the delivery continues with *)
}

let no_signal = { glabel = ""; flags = [||] }

let make_put t kind ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride ~len
    ~sig_var ~sig_op ~sig_value =
  {
    nv = t;
    kind;
    from_pe;
    to_pe;
    src;
    src_pos;
    src_stride;
    dst;
    dst_pos;
    dst_stride;
    len;
    sig_var;
    sig_op;
    sig_value;
    op = 0;
    flow = None;
    resent = false;
    since = Time.zero;
    t0 = Time.zero;
    k = ignore;
  }

let put_bytes d = d.len * G.Buffer.elem_bytes

(* The delivery is over. When the trace records flows, its arrival is a
   span on the destination's nvshmem lane, tied back to the issuing put by
   a flow arrow. *)
let delivered d =
  (match d.flow with
  | None -> ()
  | Some (fid, src_lane, src_t) ->
    let t = d.nv in
    let label = span_label d.kind in
    let d1 = E.Engine.now t.eng in
    E.Engine.log_comm t.eng ~since:d.since;
    let tr = E.Engine.trace t.eng in
    E.Trace.add_opt tr ~lane:(lane t d.to_pe) ~label:("deliver:" ^ label)
      ~kind:E.Trace.Communication ~t0:d.since ~t1:d1;
    E.Trace.add_flow_opt tr ~id:fid ~label ~src_lane ~src_t ~dst_lane:(lane t d.to_pe) ~dst_t:d1);
  d.k ()

let signalled d =
  apply_signal d.sig_var d.to_pe d.sig_op d.sig_value;
  delivered d

(* The data is in: log the transfer, commit the data, then raise any
   attached signal — NVSHMEM's data-before-signal order, kept verbatim
   when a recovery replays the delivery. *)
let landed d =
  let t = d.nv in
  G.Interconnect.transfer_landed (net t) ~since:d.t0 ?trace_lane:(trace_lane t d.from_pe)
    ~label:(if d.resent then resend_label d.kind else span_label d.kind)
    ();
  match d.kind with
  | Plain ->
    G.Buffer.blit ~src:d.src ~src_pos:d.src_pos ~dst:d.dst ~dst_pos:d.dst_pos ~len:d.len;
    delivered d
  | Signalled ->
    G.Buffer.blit ~src:d.src ~src_pos:d.src_pos ~dst:d.dst ~dst_pos:d.dst_pos ~len:d.len;
    t.after (arch t).G.Arch.nvshmem_signal (fun () -> signalled d)
  | Strided ->
    G.Buffer.blit_strided ~src:d.src ~src_pos:d.src_pos ~src_stride:d.src_stride ~dst:d.dst
      ~dst_pos:d.dst_pos ~dst_stride:d.dst_stride ~count:d.len;
    delivered d

(* A device-initiated wire transfer. *)
let transfer d =
  let t = d.nv in
  let net = net t in
  d.t0 <- E.Engine.now t.eng;
  t.after
    (G.Interconnect.start_transfer net ~src:(G.Interconnect.gpu net d.from_pe)
       ~dst:(G.Interconnect.gpu net d.to_pe) ~initiator:G.Interconnect.By_device
       ~bytes:(put_bytes d))
    (fun () -> landed d)

(* One fabric delivery of [d], then [k]: the same steps whether it runs
   as its own process or is replayed by a recovering waiter. *)
let deliver d k =
  let t = d.nv in
  d.k <- k;
  d.since <- E.Engine.now t.eng;
  match d.kind with
  | Strided ->
    t.after
      (Time.scale (arch t).G.Arch.nvshmem_strided_elem (float_of_int d.len))
      (fun () -> transfer d)
  | Plain | Signalled -> transfer d

(* Run [first] asynchronously on behalf of the sender, tracking it in the
   PE's outstanding-op counter so that quiet/barrier can drain it. The
   process name is formatted only if a diagnostic asks for it. *)
let deliver_async d first =
  let t = d.nv in
  E.Sync.Flag.add t.pending.(d.from_pe) 1;
  t.next_op <- t.next_op + 1;
  d.op <- t.next_op;
  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks t.eng
      ~name_of:(fun () -> Printf.sprintf "nvshmem.%s.pe%d.%d" (proc_name d.kind) d.from_pe d.op)
      first
  in
  ()

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

(* A write the fabric lost: count it, mark it on the sender's lane and file
   its replay under [key], for whoever waits on what it carried. *)
let lose t ~from_pe ~label ~key (resend : steps) =
  bump t (fun o -> o.m_drops);
  mark_fault t ~pe:from_pe ~label:("fault:drop:" ^ label);
  F.record_lost (Option.get t.faults) ~key resend

(* What a put does once the caller has paid its issue overhead: count it,
   draw its fate and start its delivery, or file it as lost. *)
let issued d =
  let t = d.nv and from_pe = d.from_pe in
  note_put t ~from_pe ~bytes:(put_bytes d);
  d.flow <- flow_ctx t ~from_pe;
  let retire = t.retire.(from_pe) in
  match draw_fate t ~from_pe with
  | F.Deliver -> deliver_async d (fun () -> deliver d retire)
  | F.Delayed hold -> deliver_async d (fun () -> t.after hold (fun () -> deliver d retire))
  | F.Dropped ->
    (* The fabric loses the packet: neither data nor signal arrives. The
       sender's queue slot still drains (so quiet on an unrelated path
       does not hang forever on a ghost op) and the delivery is filed for
       retransmission: a put+signal under the flag its arrival would have
       raised, any other put under its sender's [quiet]. *)
    let key =
      match d.kind with
      | Signalled -> sig_key d.sig_var ~to_pe:d.to_pe
      | Plain | Strided -> put_key ~from_pe
    in
    d.resent <- true;
    lose t ~from_pe ~label:(span_label d.kind) ~key (deliver d);
    deliver_async d retire

(* Every remote write opens alike: check both PEs, then go ahead only if
   the sender is alive. *)
let admitted t ~from_pe ~to_pe op =
  check_pe t from_pe op;
  check_pe t to_pe op;
  not (sender_dead t ~pe:from_pe)

(* A put's one wait is its issue overhead; then it is {!issued}. *)
let issue_k d k =
  d.nv.after (issue_overhead d.nv) (fun () ->
      issued d;
      k ())

let putmem_nbi_k t ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len k =
  let dst = local dst ~pe:to_pe in
  if admitted t ~from_pe ~to_pe "put" then
    issue_k
      (make_put t Plain ~from_pe ~to_pe ~src ~src_pos ~src_stride:1 ~dst ~dst_pos ~dst_stride:1
         ~len ~sig_var:no_signal ~sig_op:Signal_set ~sig_value:0)
      k
  else k ()

let putmem_signal_nbi_k t ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len ~sig_var ~sig_op
    ~sig_value k =
  let dst = local dst ~pe:to_pe in
  if admitted t ~from_pe ~to_pe "put" then
    issue_k
      (make_put t Signalled ~from_pe ~to_pe ~src ~src_pos ~src_stride:1 ~dst ~dst_pos
         ~dst_stride:1 ~len ~sig_var ~sig_op ~sig_value)
      k
  else k ()

(* A strided put checks its PEs before it looks up the destination, so
   it resolves the destination only once its issue is paid. *)
let iput_nbi_k t ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride ~count k =
  if admitted t ~from_pe ~to_pe "iput" then
    t.after (issue_overhead t) (fun () ->
        issued
          (make_put t Strided ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst:(local dst ~pe:to_pe)
             ~dst_pos ~dst_stride ~len:count ~sig_var:no_signal ~sig_op:Signal_set ~sig_value:0);
        k ())
  else k ()

(* A single-element put blocks its caller for the whole transfer: the
   issue overhead, the wire transfer, then the store. *)
let p_k t ~from_pe ~to_pe ~value ~dst ~dst_pos k =
  if admitted t ~from_pe ~to_pe "p" then
    t.after (issue_overhead t) (fun () ->
        note_put t ~from_pe ~bytes:G.Buffer.elem_bytes;
        let net = net t in
        G.Interconnect.transfer_steps net ~src:(G.Interconnect.gpu net from_pe)
          ~dst:(G.Interconnect.gpu net to_pe) ~initiator:G.Interconnect.By_device
          ~bytes:G.Buffer.elem_bytes ?trace_lane:(trace_lane t from_pe) ~label:"p"
          (fun () ->
            G.Buffer.set (local dst ~pe:to_pe) dst_pos value;
            k ()))
  else k ()

(* Replay recovered deliveries in order, then continue. *)
let rec replay lost k =
  match lost with [] -> k () | (resend : steps) :: rest -> resend (fun () -> replay rest k)

(* A recovering waiter's batch of lost writes: count it, mark it on the
   waiter's lane, and replay it. *)
let recover t plan ~pe ~label lost k =
  let n = List.length lost in
  F.note_resent plan n;
  (match t.obs with None -> () | Some o -> Mx.Counter.add o.m_resends n);
  mark_fault t ~pe ~label:("fault:resend:" ^ label);
  replay lost k

let is_zero v = v = 0

(* What a fence replays once its PE's queue has drained: the plain
   (signal-less) puts the fabric lost, which the NIC reports as undelivered
   queue slots, so the fence retransmits them before declaring the PE
   quiet, charging itself the wire time. [None] when there are none. *)
let quiet_replay t ~pe =
  match t.faults with
  | None -> None
  | Some plan -> (
    match F.recover_lost plan ~key:(put_key ~from_pe:pe) with
    | [] -> None
    | lost -> Some (recover t plan ~pe ~label:"quiet" lost))

(* Whether a fence on [pe] is over as soon as it starts: no delivery is
   outstanding and no fault plan can have lost one. It then continues at
   once, without the closure its wait would take. *)
let fenced t ~pe = is_zero (E.Sync.Flag.get t.pending.(pe)) && Option.is_none t.faults

let quiet_k t ~pe k =
  check_pe t pe "quiet";
  if fenced t ~pe then k ()
  else
    E.Sync.Flag.wait_until_k t.pending.(pe) is_zero (fun () ->
        match quiet_replay t ~pe with None -> k () | Some replay -> replay k)

(* Wire latency a fabric signal rides: the routed path between the PEs (the
   NVLink hop on a single switch, NIC + IB on an inter-node pair); a PE
   signalling itself still loops through the fabric at the cheapest pair
   latency, as the flat model charged. *)
let signal_wire t ~from_pe ~to_pe =
  let net = net t in
  if from_pe = to_pe then G.Interconnect.min_gpu_wire_latency net
  else
    G.Interconnect.wire_latency net ~src:(G.Interconnect.gpu net from_pe)
      ~dst:(G.Interconnect.gpu net to_pe)

(* What a signal op's update takes to land: any fault hold on the path,
   the GPU-initiated issue, the wire and the signal write. *)
let signal_latency t ~from_pe ~to_pe =
  let a = arch t and net = net t in
  Time.add
    (G.Interconnect.fault_hold net ~src:(G.Interconnect.gpu net from_pe)
       ~dst:(G.Interconnect.gpu net to_pe))
    (Time.add a.G.Arch.gpu_initiated_latency
       (Time.add (signal_wire t ~from_pe ~to_pe) a.G.Arch.nvshmem_signal))

(* What a signal op does once its fence is over: count it and draw its
   fate, which it returns. A lost update vanishes in the fabric here, its
   issue cost paid, filed for the destination's resilient waiter; for a
   delivered one the caller waits out its latency, then any extra delay,
   then applies it. *)
let signal_issued t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value =
  bump t (fun o -> o.m_signal_ops);
  let fate = draw_fate t ~from_pe in
  (match fate with
  | F.Dropped ->
    lose t ~from_pe ~label:"signal_op" ~key:(sig_key sig_var ~to_pe) (fun k ->
        t.after (signal_latency t ~from_pe ~to_pe) (fun () ->
            apply_signal sig_var to_pe sig_op sig_value;
            k ()))
  | F.Deliver | F.Delayed _ -> ());
  fate

let signal_fenced_k t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value k =
  match signal_issued t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value with
  | F.Dropped -> k ()
  | F.Deliver ->
    t.after (signal_latency t ~from_pe ~to_pe) (fun () ->
        apply_signal sig_var to_pe sig_op sig_value;
        k ())
  | F.Delayed d ->
    t.after (signal_latency t ~from_pe ~to_pe) (fun () ->
        t.after d (fun () ->
            apply_signal sig_var to_pe sig_op sig_value;
            k ()))

(* Ordered after prior puts from this PE: a signal op fences by waiting
   for them ({!quiet_k}). *)
let signal_op_remote_k t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value k =
  if not (admitted t ~from_pe ~to_pe "signal_op") then k ()
  else if fenced t ~pe:from_pe then signal_fenced_k t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value k
  else
    quiet_k t ~pe:from_pe (fun () ->
        signal_fenced_k t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value k)

(* Timeout/retry/resend wait (fault runs only): each timeout first asks the
   fabric to retransmit any delivery lost on the way to this flag, then
   backs off; a wait that exhausts its retries raises a fully diagnosed
   {!Cpufree_engine.Engine.Stall} instead of spinning forever. *)
let resilient_wait_k t ~pe ~waits_on ~plan ~sig_var pred k =
  let spec = F.spec_of plan in
  let flag = sig_var.flags.(pe) in
  let key = sig_key sig_var ~to_pe:pe in
  let started = E.Engine.now t.eng in
  let rec attempt retries timeout =
    let deadline = Time.add (E.Engine.now t.eng) timeout in
    E.Sync.Flag.await_k ?waits_on flag ~deadline pred (function
      | `Ok -> k ()
      | `Timeout -> (
        let again () = attempt (retries + 1) (Time.scale timeout spec.F.backoff) in
        match F.recover_lost plan ~key with
        | [] -> (
          (* Nothing to replay. Before pacing another retry, consult the
             fail-stop schedule: a peer whose death has passed will never
             supply this signal, so retrying is futile — diagnose the kill
             instead. The check is a pure function of (spec, now), making
             the detection round deterministic; without fail-stop clauses
             it is compiled out of the path entirely. *)
          match
            if F.has_failstop spec then F.killed_by spec ~now:(E.Engine.now t.eng) else []
          with
          | (dead_pe, at) :: _ as dead ->
            List.iter (fun (dpe, _) -> F.note_obituary plan ~pe:dpe) dead;
            mark_fault t ~pe ~label:(Printf.sprintf "fault:kill:pe%d" dead_pe);
            raise (F.Killed { pe = dead_pe; at })
          | [] ->
            if retries >= spec.F.max_retries then
              raise
                (E.Engine.Stall
                   (E.Engine.stall_report t.eng
                      ~trigger:
                        (Printf.sprintf "signal %s@pe%d: %d retries exhausted after %s (value %d)"
                           sig_var.glabel pe retries
                           (Time.to_string (Time.sub (E.Engine.now t.eng) started))
                           (E.Sync.Flag.get flag))))
            else begin
              F.note_retry plan;
              bump t (fun o -> o.m_retries);
              mark_fault t ~pe ~label:("fault:retry:" ^ sig_var.glabel);
              again ()
            end)
        | lost ->
          (* Replay lost deliveries — data first, then signal, as the
             originals would have arrived — charging the retransmission
             wire time to the recovering waiter. *)
          recover t plan ~pe ~label:sig_var.glabel lost (fun () ->
              F.note_retry plan;
              bump t (fun o -> o.m_retries);
              again ())))
  in
  attempt 0 spec.F.retry_timeout

(* A signal wait checks the PE and counts the wait. *)
let count_wait t ~pe =
  check_pe t pe "signal_wait";
  bump t (fun o -> o.m_signal_waits)

(* A blocked wait's group it waits on, and the fault plan that makes it
   resilient (when one is active). *)
let waits_on_of t expect_from =
  match expect_from with None -> None | Some g -> Some (G.Runtime.gpu_group t.ctx g)

let active_plan t =
  match t.faults with
  | Some plan when F.is_active (F.spec_of plan) -> Some plan
  | Some _ | None -> None

(* What a signal wait that blocked runs once its flag is seen: it pays the
   remote-write detection latency, then, when metrics are on, notes how
   long it spun. Without metrics it is one closure around [k]. *)
let seen t k =
  let latency = (arch t).G.Arch.nvshmem_wait_latency in
  match t.obs with
  | None -> fun () -> t.after latency k
  | Some o ->
    let t0 = E.Engine.now t.eng in
    fun () ->
      t.after latency (fun () ->
          Mx.Histogram.observe o.m_wait_blocked (Time.to_ns (Time.sub (E.Engine.now t.eng) t0));
          k ())

let signal_wait_until_k t ?expect_from ~pe ~sig_var pred k =
  count_wait t ~pe;
  let flag = sig_var.flags.(pe) in
  if pred (E.Sync.Flag.get flag) then k ()
  else
    let waits_on = waits_on_of t expect_from in
    match active_plan t with
    | Some plan -> resilient_wait_k t ~pe ~waits_on ~plan ~sig_var pred (seen t k)
    | None -> E.Sync.Flag.wait_until_k ?waits_on flag pred (seen t k)

(* A flag that already holds continues before anything is built; a plain
   wait is a threshold one, with no predicate. *)
let signal_wait_ge_k t ?expect_from ~pe ~sig_var v k =
  count_wait t ~pe;
  let flag = sig_var.flags.(pe) in
  if E.Sync.Flag.get flag >= v then k ()
  else
    let waits_on = waits_on_of t expect_from in
    match active_plan t with
    | Some plan -> resilient_wait_k t ~pe ~waits_on ~plan ~sig_var (fun x -> x >= v) (seen t k)
    | None -> E.Sync.Flag.wait_ge_k ?waits_on flag v (seen t k)

let reorders t = Option.is_some (active_plan t)

let pending t ~pe =
  check_pe t pe "pending";
  E.Sync.Flag.get t.pending.(pe)
