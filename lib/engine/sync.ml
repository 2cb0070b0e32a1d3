module Flag = struct
  (* A waiter is ready once the value reaches [min] and [pred] holds. A
     threshold wait ({!wait_ge_k}) sets [min] and the constant [any], a
     predicate wait [min_int] and its predicate, so a threshold wait
     builds no closure for its test. *)
  type waiter = { min : int; pred : int -> bool; wake : unit -> unit }

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
  let any (_ : int) = true

  (* [l] without its waiters that [v] satisfies, each woken in list order
     as it is dropped. The tail after the last one dropped is shared, so
     an update that satisfies nobody, or only the newest waiter, allocates
     nothing. *)
  let rec sweep v = function
    | [] -> []
    | w :: rest as l ->
      if v >= w.min && w.pred v then begin
        w.wake ();
        sweep v rest
      end
      else
        let rest' = sweep v rest in
        if rest' == rest then l else w :: rest'

  let wake_satisfied t =
    let still = sweep t.value t.waiters in
    if still != t.waiters then t.waiters <- still

  let set t v =
    t.value <- v;
    wake_satisfied t

  let add t d = set t (t.value + d)

  (* The reason captures the value the wait blocked at. *)
  let reason t v () = Printf.sprintf "flag %s (value %d)" (name t) v

  (* Re-check after waking: another process scheduled at the same instant
     may have changed the value between the wake and the resume. *)
  let rec wait_until_k ?waits_on t pred k =
    if pred t.value then k ()
    else
      let wake =
        Engine.await t.eng ~reason:(reason t t.value) ?waits_on (fun () ->
            wait_until_k ?waits_on t pred k)
      in
      t.waiters <- { min = min_int; pred; wake } :: t.waiters

  let rec wait_ge_k ?waits_on t v k =
    if t.value >= v then k ()
    else
      let wake =
        Engine.await t.eng ~reason:(reason t t.value) ?waits_on (fun () -> wait_ge_k ?waits_on t v k)
      in
      t.waiters <- { min = v; pred = any; wake } :: t.waiters

  (* Deadline wait: files both a flag waiter and a timer at [deadline]
     under the suspension's waker (idempotent, so whichever fires second
     is a no-op). On timeout the stale flag waiter is defused — its
     predicate starts answering [true] — and the next flag mutation purges
     it. *)
  let await_k ?waits_on t ~deadline pred k =
    let rec go () =
      if pred t.value then k `Ok
      else if Time.(Engine.now t.eng >= deadline) then k `Timeout
      else begin
        let timed_out = ref false in
        let v = t.value in
        let wake =
          Engine.await t.eng
            ~reason:(fun () ->
              Printf.sprintf "flag %s (value %d, deadline %s)" (name t) v (Time.to_string deadline))
            ?waits_on
            (fun () ->
              if (not (pred t.value)) && Time.(Engine.now t.eng >= deadline) then timed_out := true;
              go ())
        in
        t.waiters <- { min = min_int; pred = (fun v -> !timed_out || pred v); wake } :: t.waiters;
        Engine.schedule_at t.eng deadline wake
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
      let wake = Engine.await t.eng ~reason:(reason t gen) (fun () -> released_k t gen k) in
      t.waiters <- wake :: t.waiters

  let wait_k t k =
    let gen = t.gen in
    if arrive t then k () else released_k t gen k
end

module Mailbox = struct
  (* Waiters queue in a [Queue.t]: enqueue and dequeue are O(1) where the
     previous list tail-append made n blocked receivers cost O(n²). *)
  type 'a t = {
    eng : Engine.t;
    name_of : unit -> string;  (* rendered when a diagnostic reads it *)
    items : 'a Queue.t;
    waiters : (unit -> unit) Queue.t;
  }

  let create ?(name = "mailbox") ?(name_of = fun () -> name) eng () =
    { eng; name_of; items = Queue.create (); waiters = Queue.create () }

  let send t x =
    Queue.push x t.items;
    if not (Queue.is_empty t.waiters) then (Queue.take t.waiters) ()

  (* The reason and the re-check are made once per receiver, so a loop
     that calls it again from [k] allocates per wait only the engine's
     waker and its queue cell. *)
  let receiver t k =
    let reason () = "mailbox " ^ t.name_of () in
    let rec recv () =
      if Queue.is_empty t.items then Queue.push (Engine.await t.eng ~reason recv) t.waiters
      else k (Queue.take t.items)
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
