module G = Cpufree_gpu

type roles_of_pe = int -> (string * (G.Coop.t -> (unit -> unit) -> unit)) list

let run_all_k ctx ~name ~blocks ~threads_per_block ~roles k =
  G.Host.parallel_join_k ctx ~name
    (fun gpu joined ->
      let dev = G.Runtime.device ctx gpu in
      let role_list = roles gpu in
      G.Runtime.launch_cooperative_k ctx ~dev ~name ~blocks ~threads_per_block ~roles:role_list
        (fun finished ->
          Cpufree_engine.Sync.Flag.wait_ge_k finished (List.length role_list) joined))
    k

let max_blocks ctx = G.Arch.co_resident_blocks (G.Runtime.arch ctx)
