module E = Cpufree_engine

type t = {
  eng : E.Engine.t;
  dev : Device.t;
  blocks : int;
  threads : int;
  barrier : E.Sync.Barrier.t;
}

let make eng ~dev ~roles ~total_blocks ~threads_per_block =
  if roles <= 0 then invalid_arg "Coop.make: need at least one role";
  {
    eng;
    dev;
    blocks = total_blocks;
    threads = threads_per_block;
    barrier =
      E.Sync.Barrier.create ~name:(Printf.sprintf "gpu%d.grid" (Device.id dev)) eng roles;
  }

let device t = t.dev
let total_blocks t = t.blocks
let threads_per_block t = t.threads

(* A grid sync pays the architecture's latency, then waits at the
   barrier. *)
let sync_k t k =
  E.Engine.after t.eng (Device.arch t.dev).Arch.grid_sync (fun () ->
      E.Sync.Barrier.wait_k t.barrier k)

let sync_count t = E.Sync.Barrier.generation t.barrier
