type t = { id : int; arch : Arch.t; eng : Cpufree_engine.Engine.t; group : string }

let create eng ~arch ~id =
  if id < 0 then invalid_arg "Device.create: negative id";
  { id; arch; eng; group = Printf.sprintf "gpu%d" id }

let id t = t.id
let group t = t.group
let arch t = t.arch
let engine t = t.eng
let lane t sub = Printf.sprintf "gpu%d.%s" t.id sub
let co_resident_blocks t = Arch.co_resident_blocks t.arch
