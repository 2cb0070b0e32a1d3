module E = Cpufree_engine

type t = {
  dev : Device.t;
  sname : string;
  lane : string Lazy.t;
  inbox : (unit -> unit) E.Sync.Mailbox.t;
  mutable submitted : int;
  done_flag : E.Sync.Flag.t;
}

let serve t () =
  let rec loop () =
    let op = E.Sync.Mailbox.recv t.inbox in
    op ();
    E.Sync.Flag.add t.done_flag 1;
    loop ()
  in
  loop ()

let create eng ~dev ~name =
  let t =
    {
      dev;
      sname = name;
      lane = lazy (Device.lane dev name);
      inbox = E.Sync.Mailbox.create ~name:(name ^ ".inbox") eng ();
      submitted = 0;
      done_flag = E.Sync.Flag.create ~name:(name ^ ".completed") eng 0;
    }
  in
  let (_ : E.Engine.process) =
    E.Engine.spawn eng
      ~name:(Printf.sprintf "stream:%s" name)
      ~daemon:true
      ~group:(Printf.sprintf "gpu%d" (Device.id dev))
      (serve t)
  in
  t

let name t = t.sname
let device t = t.dev
let lane t = t.lane

let enqueue t op =
  t.submitted <- t.submitted + 1;
  E.Sync.Mailbox.send t.inbox op

let await_idle t = E.Sync.Flag.wait_ge t.done_flag t.submitted
