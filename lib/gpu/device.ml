type t = { id : int; arch : Arch.t; eng : Cpufree_engine.Engine.t }

let create eng ~arch ~id =
  if id < 0 then invalid_arg "Device.create: negative id";
  { id; arch; eng }

let id t = t.id
let arch t = t.arch
let engine t = t.eng
let lane t sub = Printf.sprintf "gpu%d.%s" t.id sub
let co_resident_blocks t = Arch.co_resident_blocks t.arch
