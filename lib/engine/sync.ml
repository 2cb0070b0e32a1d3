module Flag = struct
  type waiter = { pred : int -> bool; wake : unit -> unit }

  type t = {
    eng : Engine.t;
    fname : string;
    mutable value : int;
    mutable waiters : waiter list;
  }

  let create ?(name = "flag") eng v = { eng; fname = name; value = v; waiters = [] }
  let name t = t.fname
  let get t = t.value

  let rec any_ready v = function [] -> false | w :: rest -> w.pred v || any_ready v rest

  (* Most updates satisfy nobody: check before partitioning, so they
     allocate nothing. *)
  let wake_satisfied t =
    if any_ready t.value t.waiters then begin
      let ready, still = List.partition (fun w -> w.pred t.value) t.waiters in
      t.waiters <- still;
      List.iter (fun w -> w.wake ()) ready
    end

  let set t v =
    t.value <- v;
    wake_satisfied t

  let add t d = set t (t.value + d)

  (* Re-check after waking: another process scheduled at the same instant may
     have changed the value between the wake and the resume. The reason
     captures the value the wait blocked at. *)
  let rec wait_until ?waits_on t pred =
    if not (pred t.value) then begin
      let v = t.value in
      Engine.suspend t.eng
        ~reason:(fun () -> Printf.sprintf "flag %s (value %d)" t.fname v)
        ?waits_on
        (fun wake -> t.waiters <- { pred; wake } :: t.waiters);
      wait_until ?waits_on t pred
    end

  let wait_ge ?waits_on t v = wait_until ?waits_on t (fun x -> x >= v)
  let wait_eq ?waits_on t v = wait_until ?waits_on t (fun x -> x = v)

  (* Deadline wait: registers both a flag waiter and a timer at [deadline]
     on the suspension's waker (idempotent, so whichever fires second is a
     no-op). On timeout the stale flag waiter is defused — its predicate
     starts answering [true] — and the next flag mutation purges it. *)
  let await ?waits_on t ~deadline pred =
    let rec go () =
      if pred t.value then `Ok
      else if Time.(Engine.now t.eng >= deadline) then `Timeout
      else begin
        let timed_out = ref false in
        let v = t.value in
        Engine.suspend t.eng
          ~reason:(fun () ->
            Printf.sprintf "flag %s (value %d, deadline %s)" t.fname v (Time.to_string deadline))
          ?waits_on
          (fun wake ->
            t.waiters <- { pred = (fun v -> !timed_out || pred v); wake } :: t.waiters;
            Engine.schedule_at t.eng deadline wake);
        if (not (pred t.value)) && Time.(Engine.now t.eng >= deadline) then timed_out := true;
        go ()
      end
    in
    go ()
end

module Barrier = struct
  type t = {
    eng : Engine.t;
    bname : string;
    parties : int;
    mutable arrived : int;
    mutable gen : int;
    mutable waiters : (unit -> unit) list;
  }

  let create ?(name = "barrier") eng parties =
    if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
    { eng; bname = name; parties; arrived = 0; gen = 0; waiters = [] }

  let parties t = t.parties
  let generation t = t.gen

  (* Waiters are released by generation, not by the [arrived] count: each
     waiter re-checks [gen] after every wake, so a process that re-arrives
     for the next round at the same simulated instant (and bumps [arrived]
     before the released waiters have resumed) can never strand or
     prematurely release a stale waiter. *)
  let wait t =
    let gen = t.gen in
    t.arrived <- t.arrived + 1;
    if t.arrived > t.parties then
      invalid_arg (Printf.sprintf "Barrier %s: more arrivals than parties" t.bname);
    if t.arrived = t.parties then begin
      let to_wake = t.waiters in
      t.waiters <- [];
      t.arrived <- 0;
      t.gen <- t.gen + 1;
      List.iter (fun wake -> wake ()) to_wake
    end
    else
      while t.gen = gen do
        let arrived = t.arrived in
        Engine.suspend t.eng
          ~reason:(fun () ->
            Printf.sprintf "barrier %s (gen %d, %d/%d)" t.bname gen arrived t.parties)
          (fun wake -> t.waiters <- wake :: t.waiters)
      done
end

module Mailbox = struct
  (* Waiters queue in a [Queue.t]: enqueue and dequeue are O(1) where the
     previous list tail-append made n blocked receivers cost O(n²). *)
  type 'a t = {
    eng : Engine.t;
    mname : string;
    items : 'a Queue.t;
    waiters : (unit -> unit) Queue.t;
  }

  let create ?(name = "mailbox") eng () =
    { eng; mname = name; items = Queue.create (); waiters = Queue.create () }

  let send t x =
    Queue.push x t.items;
    match Queue.take_opt t.waiters with None -> () | Some wake -> wake ()

  let try_recv t = Queue.take_opt t.items

  let rec recv t =
    match Queue.take_opt t.items with
    | Some x -> x
    | None ->
      Engine.suspend t.eng
        ~reason:(fun () -> "mailbox " ^ t.mname)
        (fun wake -> Queue.push wake t.waiters);
      recv t

  let length t = Queue.length t.items
end

module Resource = struct
  type t = {
    eng : Engine.t;
    rname : string;
    mutable free_from : Time.t;
    mutable total_busy : Time.t;
  }

  let create ?(name = "resource") eng () =
    { eng; rname = name; free_from = Time.zero; total_busy = Time.zero }

  let name t = t.rname
  let free_at t = t.free_from

  let book t ~duration =
    let start = Time.max (Engine.now t.eng) t.free_from in
    t.free_from <- Time.add start duration;
    t.total_busy <- Time.add t.total_busy duration;
    start

  let book_many resources ~duration =
    let n = Array.length resources in
    if n = 0 then invalid_arg "Resource.book_many: empty resource array";
    let start = ref (Engine.now resources.(0).eng) in
    for i = 0 to n - 1 do
      start := Time.max !start resources.(i).free_from
    done;
    let start = !start in
    let until = Time.add start duration in
    for i = 0 to n - 1 do
      let r = resources.(i) in
      r.free_from <- until;
      r.total_busy <- Time.add r.total_busy duration
    done;
    start

  let busy t = t.total_busy
end

module Semaphore = struct
  (* Same FIFO wake order as before, but O(1) enqueue (see {!Mailbox}). *)
  type t = {
    eng : Engine.t;
    sname : string;
    mutable count : int;
    waiters : (unit -> unit) Queue.t;
  }

  let create ?(name = "semaphore") eng count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { eng; sname = name; count; waiters = Queue.create () }

  let rec acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else begin
      Engine.suspend t.eng
        ~reason:(fun () -> "semaphore " ^ t.sname)
        (fun wake -> Queue.push wake t.waiters);
      acquire t
    end

  let release t =
    t.count <- t.count + 1;
    match Queue.take_opt t.waiters with None -> () | Some wake -> wake ()

  let available t = t.count
end
