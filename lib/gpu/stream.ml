module E = Cpufree_engine

(* An op is called with the continuation to run when it is done. *)
type op = (unit -> unit) -> unit

type t = {
  eng : E.Engine.t;
  dev : Device.t;
  sname : string;
  lane : string Lazy.t;
  inbox : op E.Sync.Mailbox.t;
  mutable submitted : int;
  done_flag : E.Sync.Flag.t;
}

(* The serve loop's closures are made once: [next] waits for an op, runs
   it, and [served] counts it done and waits for the next. *)
let serve t =
  let next = ref ignore in
  let served () =
    E.Sync.Flag.add t.done_flag 1;
    !next ()
  in
  next := E.Sync.Mailbox.receiver t.inbox (fun op -> op served);
  !next ()

let create eng ~dev ~name =
  let t =
    {
      eng;
      dev;
      sname = name;
      lane = lazy (Device.lane dev name);
      inbox = E.Sync.Mailbox.create ~name_of:(fun () -> name ^ ".inbox") eng ();
      submitted = 0;
      done_flag = E.Sync.Flag.create ~name_of:(fun () -> name ^ ".completed") eng 0;
    }
  in
  let (_ : E.Engine.process) =
    E.Engine.spawn_callbacks eng
      ~name_of:(fun () -> "stream:" ^ name)
      ~daemon:true
      ~group:(Device.group dev)
      (fun () -> serve t)
  in
  t

let name t = t.sname
let device t = t.dev
let lane t = t.lane

let enqueue_steps t op =
  t.submitted <- t.submitted + 1;
  E.Sync.Mailbox.send t.inbox op

let await_idle_k t k = E.Sync.Flag.wait_ge_k t.done_flag t.submitted k
