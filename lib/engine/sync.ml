module Flag = struct
  type waiter = { pred : int -> bool; wake : unit -> unit }

  (* [name_of], when given, renders the name in place of [fname], on
     demand: a flag made per message names itself only when a diagnostic
     reads it. *)
  type t = {
    eng : Engine.t;
    fname : string;
    name_of : (unit -> string) option;
    mutable value : int;
    mutable waiters : waiter list;
  }

  let create ?(name = "flag") ?name_of eng v =
    { eng; fname = name; name_of; value = v; waiters = [] }

  let name t = match t.name_of with Some f -> f () | None -> t.fname
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

  (* Re-check after waking: another process scheduled at the same instant
     may have changed the value between the wake and the resume. The
     reason captures the value the wait blocked at. *)
  let rec wait_until_k ?waits_on t pred k =
    if pred t.value then k ()
    else begin
      let v = t.value in
      Engine.await t.eng
        ~reason:(fun () -> Printf.sprintf "flag %s (value %d)" (name t) v)
        ?waits_on
        (fun wake -> t.waiters <- { pred; wake } :: t.waiters)
        (fun () -> wait_until_k ?waits_on t pred k)
    end

  (* A flag that already holds continues before any predicate is built. *)
  let wait_ge_k ?waits_on t v k =
    if t.value >= v then k () else wait_until_k ?waits_on t (fun x -> x >= v) k

  (* Deadline wait: registers both a flag waiter and a timer at [deadline]
     on the suspension's waker (idempotent, so whichever fires second is a
     no-op). On timeout the stale flag waiter is defused — its predicate
     starts answering [true] — and the next flag mutation purges it. *)
  let await_k ?waits_on t ~deadline pred k =
    let rec go () =
      if pred t.value then k `Ok
      else if Time.(Engine.now t.eng >= deadline) then k `Timeout
      else begin
        let timed_out = ref false in
        let v = t.value in
        Engine.await t.eng
          ~reason:(fun () ->
            Printf.sprintf "flag %s (value %d, deadline %s)" (name t) v (Time.to_string deadline))
          ?waits_on
          (fun wake ->
            t.waiters <- { pred = (fun v -> !timed_out || pred v); wake } :: t.waiters;
            Engine.schedule_at t.eng deadline wake)
          (fun () ->
            if (not (pred t.value)) && Time.(Engine.now t.eng >= deadline) then timed_out := true;
            go ())
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

  let generation t = t.gen

  (* Waiters are released by generation, not by the [arrived] count: each
     waiter re-checks [gen] after every wake, so a process that re-arrives
     for the next round at the same simulated instant (and bumps [arrived]
     before the released waiters have resumed) can never strand or
     prematurely release a stale waiter. An arrival says whether it
     released its generation. *)
  let arrive t =
    t.arrived <- t.arrived + 1;
    if t.arrived > t.parties then
      invalid_arg (Printf.sprintf "Barrier %s: more arrivals than parties" t.bname);
    let last = t.arrived = t.parties in
    if last then begin
      let to_wake = t.waiters in
      t.waiters <- [];
      t.arrived <- 0;
      t.gen <- t.gen + 1;
      List.iter (fun wake -> wake ()) to_wake
    end;
    last

  let reason t gen =
    let arrived = t.arrived in
    fun () -> Printf.sprintf "barrier %s (gen %d, %d/%d)" t.bname gen arrived t.parties

  let rec released_k t gen k =
    if t.gen <> gen then k ()
    else
      Engine.await t.eng ~reason:(reason t gen)
        (fun wake -> t.waiters <- wake :: t.waiters)
        (fun () -> released_k t gen k)

  let wait_k t k =
    let gen = t.gen in
    if arrive t then k () else released_k t gen k
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

  (* The reason, the registration and the re-check are made once per
     receiver, so a loop that calls it again from [k] allocates nothing
     per wait but the engine's waker. *)
  let receiver t k =
    let reason () = "mailbox " ^ t.mname in
    let register wake = Queue.push wake t.waiters in
    let rec recv () =
      match Queue.take_opt t.items with
      | Some x -> k x
      | None -> Engine.await t.eng ~reason register recv
    in
    recv

  let length t = Queue.length t.items
end

module Resource = struct
  type t = { eng : Engine.t; mutable free_from : Time.t }

  let create eng = { eng; free_from = Time.zero }

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
      resources.(i).free_from <- until
    done;
    start
end
