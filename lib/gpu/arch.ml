module Engine_time = Cpufree_engine.Time

type t = {
  name : string;
  sm_count : int;
  max_threads_per_sm : int;
  coop_blocks_per_sm : int;
  hbm_bw_gbs : float;
  nvlink_bw_gbs : float;
  nvlink_latency : Engine_time.t;
  pcie_bw_gbs : float;
  pcie_latency : Engine_time.t;
  ib_bw_gbs : float;
  ib_latency : Engine_time.t;
  kernel_launch : Engine_time.t;
  kernel_teardown : Engine_time.t;
  coop_launch : Engine_time.t;
  stream_sync : Engine_time.t;
  memcpy_api : Engine_time.t;
  host_barrier : Engine_time.t;
  grid_sync : Engine_time.t;
  host_initiated_latency : Engine_time.t;
  gpu_initiated_latency : Engine_time.t;
  nvshmem_signal : Engine_time.t;
  nvshmem_put_overhead : Engine_time.t;
  nvshmem_strided_elem : Engine_time.t;
  nvshmem_wait_latency : Engine_time.t;
  mpi_overhead : Engine_time.t;
  mpi_strided_elem : Engine_time.t;
  persistent_tile_efficiency : float;
  persistent_tile_threshold : int;
  reg_cache_kb_per_sm : int;
  smem_cache_kb_per_sm : int;
}

let a100_hgx =
  let ns = Engine_time.ns in
  {
    name = "NVIDIA A100-SXM4 (HGX, NVSwitch all-to-all)";
    sm_count = 108;
    max_threads_per_sm = 2048;
    coop_blocks_per_sm = 1;
    hbm_bw_gbs = 1555.0;
    nvlink_bw_gbs = 300.0;
    nvlink_latency = ns 1_500;
    pcie_bw_gbs = 25.0;
    pcie_latency = ns 2_500;
    ib_bw_gbs = 25.0;
    ib_latency = ns 1_300;
    kernel_launch = ns 6_500;
    kernel_teardown = ns 2_200;
    coop_launch = ns 9_000;
    stream_sync = ns 6_500;
    memcpy_api = ns 1_800;
    host_barrier = ns 21_000;
    grid_sync = ns 2_800;
    host_initiated_latency = ns 1_900;
    gpu_initiated_latency = ns 250;
    nvshmem_signal = ns 900;
    nvshmem_put_overhead = ns 350;
    nvshmem_strided_elem = ns 1;
    nvshmem_wait_latency = ns 2_000;
    mpi_overhead = ns 7_500;
    mpi_strided_elem = ns 150;
    persistent_tile_efficiency = 0.84;
    persistent_tile_threshold = 64;
    reg_cache_kb_per_sm = 200;
    smem_cache_kb_per_sm = 140;
  }

(* H100 SXM5 (DGX H100): more SMs, HBM3, NVLink 4. Device-side latencies
   improve modestly; host API costs are unchanged (they are CPU-side), which
   is exactly why the CPU-Free gap widens on newer parts. *)
let h100_hgx =
  let ns = Engine_time.ns in
  {
    a100_hgx with
    name = "NVIDIA H100-SXM5 (HGX, NVSwitch all-to-all)";
    sm_count = 132;
    hbm_bw_gbs = 3350.0;
    nvlink_bw_gbs = 450.0;
    nvlink_latency = ns 1_200;
    ib_bw_gbs = 50.0;
    ib_latency = ns 1_000;
    grid_sync = ns 2_400;
    gpu_initiated_latency = ns 200;
    nvshmem_wait_latency = ns 1_600;
    reg_cache_kb_per_sm = 200;
    smem_cache_kb_per_sm = 180;
  }

let by_name = [ ("a100", a100_hgx); ("h100", h100_hgx) ]

let of_name name = List.assoc_opt (String.lowercase_ascii name) by_name

let co_resident_blocks t = t.sm_count * t.coop_blocks_per_sm

let hbm_bytes_per_ns t = t.hbm_bw_gbs

(* The link numbers the topology layer instantiates a machine graph from.
   The short name feeds topology naming; fall back to the display name for
   custom architectures. *)
let fabric_profile t =
  let pname =
    match List.find_opt (fun (_, a) -> a = t) by_name with
    | Some (short, _) -> short
    | None -> t.name
  in
  {
    Cpufree_machine.Topology.pname;
    nvlink_latency = t.nvlink_latency;
    nvlink_gbs = t.nvlink_bw_gbs;
    pcie_latency = t.pcie_latency;
    pcie_gbs = t.pcie_bw_gbs;
    hbm_gbs = t.hbm_bw_gbs;
    ib_latency = t.ib_latency;
    ib_gbs = t.ib_bw_gbs;
  }

let pp fmt t =
  Format.fprintf fmt "%s: %d SMs, HBM %.0f GB/s, NVLink %.0f GB/s/dir, launch %a" t.name
    t.sm_count t.hbm_bw_gbs t.nvlink_bw_gbs Engine_time.pp t.kernel_launch
