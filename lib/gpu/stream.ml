module E = Cpufree_engine

type op = { label : string; body : unit -> unit }

type t = {
  eng : E.Engine.t;
  dev : Device.t;
  sname : string;
  inbox : op E.Sync.Mailbox.t;
  mutable submitted : int;
  done_flag : E.Sync.Flag.t;
}

let serve t () =
  let rec loop () =
    let op = E.Sync.Mailbox.recv t.inbox in
    op.body ();
    E.Sync.Flag.add t.done_flag 1;
    loop ()
  in
  loop ()

let create eng ~dev ~name =
  let t =
    {
      eng;
      dev;
      sname = name;
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

let enqueue t ?(label = "op") body =
  t.submitted <- t.submitted + 1;
  E.Sync.Mailbox.send t.inbox { label; body }

let enqueued t = t.submitted
let completed t = E.Sync.Flag.get t.done_flag
let await_count t n = E.Sync.Flag.wait_ge t.done_flag n

let await_idle t =
  let target = t.submitted in
  await_count t target
