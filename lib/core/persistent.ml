module G = Cpufree_gpu

type roles_of_pe = int -> (string * (G.Coop.t -> unit)) list

let run_all ctx ~name ~blocks ~threads_per_block ~roles =
  G.Host.parallel_join ctx ~name (fun gpu ->
      let dev = G.Runtime.device ctx gpu in
      let role_list = roles gpu in
      Cpufree_engine.Engine.handover (G.Runtime.engine ctx) (fun k ->
          G.Runtime.launch_cooperative_k ctx ~dev ~name ~blocks ~threads_per_block
            ~roles:role_list (fun finished ->
              Cpufree_engine.Sync.Flag.wait_ge_k finished (List.length role_list) k)))

let max_blocks ctx = G.Arch.co_resident_blocks (G.Runtime.arch ctx)
