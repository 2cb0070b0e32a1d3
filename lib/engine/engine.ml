open Effect.Deep

type state = Ready | Running | Blocked | Finished

(* A process is an intrusive node of the engine's live list (so spawning
   and finishing allocate no registry cell) and carries its own wait facts:
   while [state = Blocked], [why] renders the reason (built only when a
   diagnostic reads it, from values captured at the suspension), [on_group]
   is the declared wait-for edge, [since] when it blocked, and [timed]
   whether the wake is already scheduled (an {!after} — exempt from the
   stall watchdog, which hunts waits that nothing pending can resolve).

   [epoch] numbers suspensions: a waker resumes only the suspension it was
   made for and retires it, so calling it twice, or after the process has
   moved on to another wait, is a no-op. [resume] is the process's one
   queue thunk, allocated with the process.

   A process runs either in its fiber or as steps, and [stepping] says
   which. In its fiber, [resume] starts [body] on the first call and
   continues [k] on every later one. As steps, [step] is the next plain
   callback, which {!after} and {!await} replace, and [resume] runs it (a
   step that ran stays there until replaced, so running one writes
   nothing). A {!spawn_callbacks} process is steps for its whole life; a
   fiber moves to steps in {!handover}, parking its continuation in [k],
   and back when the chain continues it. *)
type process = {
  pid : int;
  name_of : unit -> string;
  daemon : bool;
  group : string option;
  mutable stepping : bool;
  mutable state : state;
  mutable why : unit -> string;
  mutable on_group : string option;
  mutable since : Time.t;
  mutable timed : bool;
  mutable epoch : int;
  mutable body : unit -> unit;
  mutable step : unit -> unit;
  mutable k : (unit, unit) continuation option;
  mutable resume : unit -> unit;
  mutable prev : process;
  mutable next : process;
}

(* --- event queue ------------------------------------------------------- *)

(* Events ordered by (at, seq), [seq] assigned at push, so same-time
   events pop in push order. Two lanes, neither allocating per event:

   - a binary min-heap for events in the future. It holds only ints —
     time, sequence and a slot index — so sifting moves no pointers and
     pays no write barrier. The thunks live in a slot table, written once
     per push and cleared once per pop; freed slots are reused last-in
     first-out;
   - a FIFO ring for events pushed at exactly the time of the last pop
     (spawns, wakes, yields). Those all share one timestamp and arrive in
     seq order, so the ring is already sorted and costs O(1).

   A pop takes the smaller of the two heads, so the order is exactly the
   heap's for any push/pop trace. *)
module Queue = struct
  type t = {
    mutable at : Time.t array; (* heap, parallel arrays *)
    mutable seq : int array;
    mutable slot : int array;
    mutable len : int;
    mutable fns : (unit -> unit) array; (* slot table, one slot per heap entry *)
    mutable free : int array; (* stack of unused slots *)
    mutable n_free : int;
    mutable f_seq : int array; (* FIFO ring, capacity a power of two *)
    mutable f_fn : (unit -> unit) array;
    mutable f_head : int;
    mutable f_len : int;
    mutable f_at : Time.t; (* the one timestamp of every FIFO entry *)
    mutable now : Time.t; (* timestamp of the last pop *)
    mutable next_seq : int;
  }

  let nothing () = ()

  let create () =
    {
      at = [||];
      seq = [||];
      slot = [||];
      len = 0;
      fns = [||];
      free = [||];
      n_free = 0;
      f_seq = Array.make 64 0;
      f_fn = Array.make 64 nothing;
      f_head = 0;
      f_len = 0;
      f_at = Time.zero;
      now = Time.zero;
      next_seq = 0;
    }

  let length q = q.len + q.f_len

  let before at s at' s' =
    let a = (at : Time.t :> int) and a' = (at' : Time.t :> int) in
    a < a' || (a = a' && s < s')

  (* Called only when every slot is taken ([len] = capacity): the new
     slots all go on the free stack, lowest on top. *)
  let grow q =
    let old = Array.length q.at in
    let cap = Stdlib.max 64 (2 * old) in
    let at = Array.make cap Time.zero and sq = Array.make cap 0 and sl = Array.make cap 0 in
    let fns = Array.make cap nothing in
    Array.blit q.at 0 at 0 q.len;
    Array.blit q.seq 0 sq 0 q.len;
    Array.blit q.slot 0 sl 0 q.len;
    Array.blit q.fns 0 fns 0 old;
    q.at <- at;
    q.seq <- sq;
    q.slot <- sl;
    q.fns <- fns;
    q.free <- Array.init cap (fun i -> cap - 1 - i);
    q.n_free <- cap - old

  let grow_fifo q =
    let cap = Array.length q.f_seq in
    let sq = Array.make (2 * cap) 0 and fn = Array.make (2 * cap) nothing in
    for k = 0 to q.f_len - 1 do
      let j = (q.f_head + k) land (cap - 1) in
      sq.(k) <- q.f_seq.(j);
      fn.(k) <- q.f_fn.(j)
    done;
    q.f_seq <- sq;
    q.f_fn <- fn;
    q.f_head <- 0

  (* Hole insertion, as in {!Heap}: parents shift down into the hole and
     the new event is written once. *)
  let push_heap q at s fn =
    if q.n_free = 0 then grow q;
    q.n_free <- q.n_free - 1;
    let k = q.free.(q.n_free) in
    q.fns.(k) <- fn;
    let qa = q.at and qs = q.seq and ql = q.slot in
    let i = ref q.len in
    q.len <- q.len + 1;
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      before at s qa.(parent) qs.(parent)
    do
      let parent = (!i - 1) / 2 in
      qa.(!i) <- qa.(parent);
      qs.(!i) <- qs.(parent);
      ql.(!i) <- ql.(parent);
      i := parent
    done;
    qa.(!i) <- at;
    qs.(!i) <- s;
    ql.(!i) <- k

  let push q at fn =
    q.next_seq <- q.next_seq + 1;
    let s = q.next_seq in
    if (at : Time.t :> int) = (q.now :> int) && (q.f_len = 0 || (q.f_at :> int) = (at :> int))
    then begin
      if q.f_len = Array.length q.f_seq then grow_fifo q;
      let j = (q.f_head + q.f_len) land (Array.length q.f_seq - 1) in
      q.f_seq.(j) <- s;
      q.f_fn.(j) <- fn;
      q.f_len <- q.f_len + 1;
      q.f_at <- at
    end
    else push_heap q at s fn

  (* Whether the FIFO head precedes the heap head. *)
  let fifo_first q =
    q.f_len > 0 && (q.len = 0 || before q.f_at q.f_seq.(q.f_head) q.at.(0) q.seq.(0))

  let min_time q =
    if q.len + q.f_len = 0 then invalid_arg "Engine.Queue.min_time: empty queue";
    if fifo_first q then q.f_at else q.at.(0)

  (* Floyd's deletion: walk the hole from the root down to a leaf along the
     smaller child (one comparison per level), then sift the former last
     element up from there — it belongs near the bottom, so that loop
     rarely runs. The popped thunk's slot is cleared so the queue never
     retains a closure. *)
  let pop_heap q =
    let qa = q.at and qs = q.seq and ql = q.slot in
    let k = ql.(0) in
    let top = q.fns.(k) in
    q.fns.(k) <- nothing;
    q.free.(q.n_free) <- k;
    q.n_free <- q.n_free + 1;
    q.now <- qa.(0);
    let n = q.len - 1 in
    q.len <- n;
    if n > 0 then begin
      let i = ref 0 in
      let l = ref 1 in
      while !l < n do
        let l0 = !l in
        (* Which child is smaller is a coin flip, so pick it with
           arithmetic rather than a branch the CPU would mispredict. *)
        let c =
          if l0 + 1 < n then begin
            let a = (qa.(l0 + 1) :> int) and a' = (qa.(l0) :> int) in
            l0
            + (Bool.to_int (a < a')
              lor (Bool.to_int (a = a') land Bool.to_int (qs.(l0 + 1) < qs.(l0))))
          end
          else l0
        in
        qa.(!i) <- qa.(c);
        qs.(!i) <- qs.(c);
        ql.(!i) <- ql.(c);
        i := c;
        l := (2 * c) + 1
      done;
      let at = qa.(n) and s = qs.(n) and sl = ql.(n) in
      while
        !i > 0
        &&
        let parent = (!i - 1) / 2 in
        before at s qa.(parent) qs.(parent)
      do
        let parent = (!i - 1) / 2 in
        qa.(!i) <- qa.(parent);
        qs.(!i) <- qs.(parent);
        ql.(!i) <- ql.(parent);
        i := parent
      done;
      qa.(!i) <- at;
      qs.(!i) <- s;
      ql.(!i) <- sl
    end;
    top

  let pop q =
    if q.len + q.f_len = 0 then invalid_arg "Engine.Queue.pop: empty queue";
    if fifo_first q then begin
      let j = q.f_head in
      let fn = q.f_fn.(j) in
      q.f_fn.(j) <- nothing;
      q.f_head <- (j + 1) land (Array.length q.f_seq - 1);
      q.f_len <- q.f_len - 1;
      q.now <- q.f_at;
      fn
    end
    else pop_heap q
end

type t = {
  mutable clock : Time.t;
  queue : Queue.t;
  mutable executed : int;
  mutable fiber_resumes : int;
  mutable steps_run : int;
  mutable running : bool;
  mutable current : process; (* the process whose event is executing *)
  live_head : process; (* sentinel of the live-process list *)
  mutable registered : int;
  mutable live : int; (* non-daemon, unfinished processes *)
  mutable next_pid : int;
  trace_sink : Trace.t option;
  busy : Intervals.Log.t;
  watchdog : Time.t option;
  mutable watch_next : int; (* next clock value that triggers a stall scan *)
  mutable stall_scan_count : int;
  mutable handler : (unit, unit) handler;
  mutable on_park : ((unit, unit) continuation -> unit) option;
}

exception Deadlock of string list

type stall_report = {
  stall_at : Time.t;
  stall_trigger : string;
  stall_blocked : string list;
  stall_cycle : string list option;
}

exception Stall of stall_report

type _ Effect.t += Park : t -> unit Effect.t

(* --- processes ----------------------------------------------------------- *)

let no_reason () = ""
let delay_reason () = "delay"
let nothing = Queue.nothing

(* A process is made with its links in place: [register] passes the live
   list's tail and head, and {!create} the constant [unlinked] for the
   sentinel, which it then closes on itself. Without a [let rec], making a
   process allocates its record only. *)
let make_process ~pid ~name_of ~daemon ~group ~stepping ~prev ~next body =
  {
    pid;
    name_of;
    daemon;
    group;
    stepping;
    state = Ready;
    why = no_reason;
    on_group = None;
    since = Time.zero;
    timed = false;
    epoch = 0;
    body = (if stepping then nothing else body);
    step = (if stepping then body else nothing);
    k = None;
    resume = nothing;
    prev;
    next;
  }

let rec unlinked =
  {
    pid = -1;
    name_of = no_reason;
    daemon = true;
    group = None;
    stepping = false;
    state = Finished;
    why = no_reason;
    on_group = None;
    since = Time.zero;
    timed = false;
    epoch = 0;
    body = nothing;
    step = nothing;
    k = None;
    resume = nothing;
    prev = unlinked;
    next = unlinked;
  }

(* Idempotent, so a raise that the fiber handler has already accounted for
   is not counted again by the step that continued the fiber. *)
let finish t p =
  match p.state with
  | Finished -> ()
  | Ready | Running | Blocked ->
    p.state <- Finished;
    if not p.daemon then t.live <- t.live - 1;
    (* Unlink so long sweeps don't retain one record per spawned kernel;
       [blocked_descriptions] only ever reports live processes. *)
    p.prev.next <- p.next;
    p.next.prev <- p.prev;
    p.prev <- p;
    p.next <- p;
    p.body <- nothing;
    p.step <- nothing;
    p.k <- None;
    t.registered <- t.registered - 1

(* The process's one queue thunk. A step that returns without naming a
   next one ({!after}, {!await}) and without continuing a fiber finishes
   the process; one that raises finishes it too, then leaves {!run} — as
   the fiber handler's [exnc] does. A process already finished (by a step
   that raised after scheduling its next one) does nothing. *)
let resume t p =
  match p.state with
  | Finished -> ()
  | Ready | Running | Blocked ->
    p.state <- Running;
    t.current <- p;
    if p.stepping then begin
      t.steps_run <- t.steps_run + 1;
      match p.step () with
      | () -> ( match p.state with Running -> finish t p | Ready | Blocked | Finished -> ())
      | exception e ->
        finish t p;
        raise e
    end
    else begin
      t.fiber_resumes <- t.fiber_resumes + 1;
      match p.k with
      | Some k ->
        p.k <- None;
        continue k ()
      | None -> match_with p.body () t.handler
    end

let block_state t p ~why ~on_group ~timed =
  p.state <- Blocked;
  if p.why != why then p.why <- why;
  p.on_group <- on_group;
  p.since <- t.clock;
  p.timed <- timed

(* The waker of [p]'s current suspension: the first call resumes it at the
   caller's time, later ones (and calls after it moved on) do nothing. *)
let waker t p =
  let e = p.epoch in
  fun () ->
    if p.epoch = e then begin
      p.epoch <- e + 1;
      Queue.push t.queue t.clock p.resume
    end

let create ?trace ?watchdog () =
  (match watchdog with
  | Some w when Time.(w <= Time.zero) -> invalid_arg "Engine.create: watchdog must be positive"
  | Some _ | None -> ());
  let sentinel =
    make_process ~pid:0 ~name_of:no_reason ~daemon:true ~group:None ~stepping:false
      ~prev:unlinked ~next:unlinked nothing
  in
  sentinel.prev <- sentinel;
  sentinel.next <- sentinel;
  let t =
    {
      clock = Time.zero;
      queue = Queue.create ();
      executed = 0;
      fiber_resumes = 0;
      steps_run = 0;
      running = false;
      current = sentinel;
      live_head = sentinel;
      registered = 0;
      live = 0;
      next_pid = 0;
      trace_sink = trace;
      busy = Intervals.Log.create ();
      watchdog;
      watch_next = max_int;
      stall_scan_count = 0;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      on_park = None;
    }
  in
  (* One handler per engine, shared by every fiber: the process an effect
     comes from is [t.current], so spawning allocates no handler. Its one
     effect is {!handover}'s [Park]: the chain has already blocked the
     process and queued its next step, so parking only keeps the fiber for
     the chain's end. *)
  t.on_park <- Some (fun k -> t.current.k <- Some k);
  t.handler <-
    {
      retc = (fun () -> finish t t.current);
      exnc =
        (fun e ->
          finish t t.current;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park eng when eng == t -> (t.on_park : ((a, unit) continuation -> unit) option)
          | _ -> None);
    };
  t

let now t = t.clock
let trace t = t.trace_sink
let busy t = t.busy
let log_compute t ~since ~lane ~label =
  Intervals.Log.compute t.busy ~t0:since ~t1:t.clock;
  match t.trace_sink with
  | None -> ()
  | Some tr ->
    Trace.add tr ~lane:(Lazy.force lane) ~label ~kind:Trace.Compute ~t0:since ~t1:t.clock
let log_comm t ~since = Intervals.Log.comm t.busy ~t0:since ~t1:t.clock

let schedule_at t at thunk =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  Queue.push t.queue at thunk

let register t ~name_of ~daemon ~group ~stepping body =
  t.next_pid <- t.next_pid + 1;
  let head = t.live_head in
  let p =
    make_process ~pid:t.next_pid ~name_of ~daemon ~group ~stepping ~prev:head.prev ~next:head body
  in
  p.resume <- (fun () -> resume t p);
  head.prev.next <- p;
  head.prev <- p;
  t.registered <- t.registered + 1;
  if not daemon then t.live <- t.live + 1;
  Queue.push t.queue t.clock p.resume;
  p

let spawn t ~name body =
  register t ~name_of:(fun () -> name) ~daemon:false ~group:None ~stepping:false body

let spawn_callbacks t ~name_of ?(daemon = false) ?group first =
  register t ~name_of ~daemon ~group ~stepping:true first

(* Block the running step's process for [d] and make [k] its next step. *)
let after t d k =
  let p = t.current in
  match p.state with
  | Running when p.stepping ->
    block_state t p ~why:delay_reason ~on_group:None ~timed:true;
    p.step <- k;
    Queue.push t.queue (Time.add t.clock d) p.resume
  | Running | Ready | Blocked | Finished ->
    invalid_arg "Engine.after: not called from a step of a spawn_callbacks process"

(* Block it until the waker it returns is first called. *)
let await t ~reason ?waits_on k =
  let p = t.current in
  match p.state with
  | Running when p.stepping ->
    block_state t p ~why:reason ~on_group:waits_on ~timed:false;
    p.step <- k;
    waker t p
  | Running | Ready | Blocked | Finished -> invalid_arg "Engine.await: not called from a step"

let fiber_caller t op =
  let p = t.current in
  match p.state with
  | Running when not p.stepping -> p
  | Running | Ready | Blocked | Finished ->
    invalid_arg (Printf.sprintf "Engine.%s: not called from a fiber process" op)

(* A handover's state: the chain's result once it ends, and whether the
   fiber parked to wait for it. *)
type 'a baton = { mutable result : 'a option; mutable parked : bool }

let handover t chain =
  let p = fiber_caller t "handover" in
  let b = { result = None; parked = false } in
  p.stepping <- true;
  (match
     chain (fun v ->
         if t.current != p || p.state <> Running || Option.is_some b.result then
           invalid_arg "Engine.handover: the chain ended outside a step of its process";
         b.result <- Some v;
         p.stepping <- false;
         p.step <- nothing;
         if b.parked then
           match p.k with
           | Some k ->
             p.k <- None;
             continue k ()
           | None -> ())
   with
  | () -> ()
  | exception e ->
    p.stepping <- false;
    raise e);
  match b.result with
  | Some v -> v
  | None -> (
    match p.state with
    | Blocked -> (
      b.parked <- true;
      Effect.perform (Park t);
      match b.result with
      | Some v -> v
      | None -> invalid_arg "Engine.handover: resumed before its chain ended")
    | Ready | Running | Finished ->
      p.stepping <- false;
      invalid_arg "Engine.handover: the chain neither waited nor ended")

let process_name p = p.name_of ()
let process_done p = p.state = Finished

let events_executed t = t.executed
let fiber_resumes t = t.fiber_resumes
let steps_run t = t.steps_run
let stall_scans t = t.stall_scan_count
let registered_processes t = t.registered

(* Blocked non-daemon processes, by pid. *)
let blocked_procs t =
  let rec collect p acc =
    if p == t.live_head then acc
    else collect p.next (if p.state = Blocked && not p.daemon then p :: acc else acc)
  in
  List.sort (fun a b -> Int.compare a.pid b.pid) (collect t.live_head.next [])

let blocked_descriptions t =
  blocked_procs t
  |> List.map (fun p ->
         let where = match p.group with Some g -> Printf.sprintf " [%s]" g | None -> "" in
         let edge =
           match p.on_group with Some g -> Printf.sprintf " <- waits on %s" g | None -> ""
         in
         Printf.sprintf "%s(#%d)%s: %s (since %s)%s" (process_name p) p.pid where (p.why ())
           (Time.to_string p.since) edge)

(* Wait-for cycle over process groups: an edge [g -> h] for every blocked
   process of group [g] waiting on group [h]. Deterministic: nodes are
   visited in sorted order, successors likewise. *)
let wait_cycle t =
  let edges =
    blocked_procs t
    |> List.filter_map (fun p ->
           match (p.group, p.on_group) with Some g, Some h -> Some (g, h) | _ -> None)
    |> List.sort_uniq compare
  in
  if edges = [] then None
  else begin
    let succ g = List.filter_map (fun (a, b) -> if String.equal a g then Some b else None) edges in
    let nodes = List.sort_uniq String.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
    let visited = Hashtbl.create 16 in
    (* DFS with an explicit path; the first back-edge found (in sorted
       order) closes the reported cycle. *)
    let rec dfs path g =
      match List.find_index (String.equal g) path with
      | Some i ->
        (* [path] is newest-first: the cycle is its first (i+1) entries. *)
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        Some (List.rev (g :: take (i + 1) path))
      | None ->
        if Hashtbl.mem visited g then None
        else begin
          Hashtbl.add visited g ();
          List.fold_left
            (fun acc h -> match acc with Some _ -> acc | None -> dfs (g :: path) h)
            None (succ g)
        end
    in
    List.fold_left (fun acc g -> match acc with Some _ -> acc | None -> dfs [] g) None nodes
  end

let deadlock_report t =
  let descr = blocked_descriptions t in
  match wait_cycle t with
  | Some cyc -> descr @ [ "wait-for cycle: " ^ String.concat " -> " cyc ]
  | None -> descr

let stall_report t ~trigger =
  {
    stall_at = t.clock;
    stall_trigger = trigger;
    stall_blocked = blocked_descriptions t;
    stall_cycle = wait_cycle t;
  }

let stall_lines r =
  (Printf.sprintf "stall at %s: %s" (Time.to_string r.stall_at) r.stall_trigger)
  :: r.stall_blocked
  @ match r.stall_cycle with
    | Some cyc -> [ "wait-for cycle: " ^ String.concat " -> " cyc ]
    | None -> []

(* Earliest [since] among watchdog-relevant blocked processes: non-daemon,
   and not waiting on an already-scheduled wake (a delay or deadline). *)
let oldest_untimed_blocked t =
  List.fold_left
    (fun acc p ->
      if p.timed then acc
      else
        match acc with
        | Some since when Time.(since <= p.since) -> acc
        | Some _ | None -> Some p.since)
    None (blocked_procs t)

(* Amortized stall scan: the driver only calls this when the clock passes
   [watch_next], which is pushed out to the earliest time the oldest wait
   could become a stall. *)
let watchdog_scan t now_ =
  match t.watchdog with
  | None -> ()
  | Some w -> (
    t.stall_scan_count <- t.stall_scan_count + 1;
    let next_at x = t.watch_next <- (Time.add x w :> int) in
    match oldest_untimed_blocked t with
    | Some since when Time.(Time.add since w <= now_) ->
      raise
        (Stall
           (stall_report t
              ~trigger:
                (Printf.sprintf "watchdog: a blocked process made no progress for %s"
                   (Time.to_string w))))
    | Some since -> next_at since
    | None -> next_at now_)

let run ?until t =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  (match t.watchdog with Some w -> t.watch_next <- (Time.add t.clock w :> int) | None -> ());
  let limit = match until with Some (l : Time.t) -> (l :> int) | None -> max_int in
  let loop () =
    let go = ref true in
    while !go do
      if Queue.length t.queue = 0 then begin
        go := false;
        if t.live > 0 then raise (Deadlock (deadlock_report t))
      end
      else begin
        let at = Queue.min_time t.queue in
        if (at :> int) > limit then begin
          (* Leave the event queued so a later [run] resumes seamlessly. *)
          t.clock <- Time.ns limit;
          go := false
        end
        else begin
          let fn = Queue.pop t.queue in
          t.clock <- at;
          if (at :> int) >= t.watch_next then watchdog_scan t at;
          t.executed <- t.executed + 1;
          fn ()
        end
      end
    done
  in
  Fun.protect ~finally:(fun () -> t.running <- false) loop
