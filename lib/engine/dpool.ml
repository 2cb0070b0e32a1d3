(* Persistent domain worker pool: the scenario daemon's batch executor.

   One pool outlives many short parallel phases, so it spawns its workers
   once and coordinates per-phase fan-out with a mutex and two condition
   variables: the caller publishes a task and a phase number, every worker
   (and the caller itself) self-schedules item indices off a shared atomic
   cursor, and the caller blocks until the in-flight count drains.
   Publishing under the mutex gives the happens-before edge that makes the
   caller's mutable state safely visible to the claiming worker without
   per-field atomics.

   The task callback must not raise: callers are expected to catch and
   report exceptions per item. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable phase : int;
  mutable stop : bool;
  mutable nitems : int;
  mutable task : int -> unit;
  cursor : int Atomic.t;
  mutable inflight : int;
  mutable domains : unit Domain.t list;
}

let drain t =
  let rec go () =
    let i = Atomic.fetch_and_add t.cursor 1 in
    if i < t.nitems then begin
      t.task i;
      go ()
    end
  in
  go ()

let worker t () =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stop) && t.phase = !seen do
      Condition.wait t.work_cv t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      seen := t.phase;
      Mutex.unlock t.lock;
      drain t;
      Mutex.lock t.lock;
      t.inflight <- t.inflight - 1;
      if t.inflight = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Dpool.create: jobs must be positive";
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      phase = 0;
      stop = false;
      nitems = 0;
      task = ignore;
      cursor = Atomic.make 0;
      inflight = 0;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

let jobs t = t.jobs

let run t ~n f =
  Mutex.lock t.lock;
  t.task <- f;
  t.nitems <- n;
  Atomic.set t.cursor 0;
  t.inflight <- t.jobs;
  t.phase <- t.phase + 1;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  (* The master is a full participant, then waits for the stragglers. *)
  drain t;
  Mutex.lock t.lock;
  t.inflight <- t.inflight - 1;
  if t.inflight = 0 then Condition.broadcast t.done_cv
  else while t.inflight <> 0 do Condition.wait t.done_cv t.lock done;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []
