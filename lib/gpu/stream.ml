module E = Cpufree_engine

(* An op is steps (a copy: it runs as the stream's chain and calls its
   continuation when done) or a body that may block anywhere (a kernel),
   which the stream's fiber runs. *)
type op = Steps of ((unit -> unit) -> unit) | Blocking of (unit -> unit)

type t = {
  eng : E.Engine.t;
  dev : Device.t;
  sname : string;
  lane : string Lazy.t;
  inbox : op E.Sync.Mailbox.t;
  mutable submitted : int;
  done_flag : E.Sync.Flag.t;
}

(* The serve loop waits for its next op the way it ran the last one: as
   steps after a copy (and at the start), in its fiber after a kernel
   body. As steps it runs copies and counts them until a kernel body
   arrives, which it hands back to the fiber; the fiber runs kernel bodies
   and hands the loop over at the next copy. A stream of copies thus never
   goes back to its fiber and a stream of launches never leaves it.
   [back] is the current handover's way back. *)
let serve t () =
  let back = ref ignore in
  let rec next () = E.Sync.Mailbox.recv_k t.inbox run
  and run = function Steps op -> op served | Blocking body -> !back body
  and served () =
    E.Sync.Flag.add t.done_flag 1;
    next ()
  in
  let steps first k =
    back := k;
    first ()
  in
  let rec fiber body =
    body ();
    E.Sync.Flag.add t.done_flag 1;
    match E.Sync.Mailbox.recv t.inbox with
    | Blocking body -> fiber body
    | Steps op -> fiber (E.Engine.handover t.eng (steps (fun () -> op served)))
  in
  fiber (E.Engine.handover t.eng (steps next))

let create eng ~dev ~name =
  let t =
    {
      eng;
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

let submit t op =
  t.submitted <- t.submitted + 1;
  E.Sync.Mailbox.send t.inbox op

let enqueue t body = submit t (Blocking body)
let enqueue_steps t op = submit t (Steps op)
let await_idle_k t k = E.Sync.Flag.wait_ge_k t.done_flag t.submitted k
let await_idle t = E.Sync.Flag.wait_ge t.done_flag t.submitted
