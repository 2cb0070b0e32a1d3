module Engine_time = Cpufree_engine.Time

(** Device and system cost-model parameters.

    A machine is a bag of latency and bandwidth numbers; every experiment in
    the paper compares control schemes on one fixed machine, so the numbers
    below (public A100/HGX specifications and microbenchmark values from the
    synchronization-methods literature the paper cites) fully determine the
    simulated behaviour. All latencies are per-call costs charged to the
    issuing side. *)

type t = {
  name : string;
  sm_count : int;  (** streaming multiprocessors (A100: 108) *)
  max_threads_per_sm : int;
  coop_blocks_per_sm : int;
      (** co-resident thread blocks per SM under cooperative launch with
          1024-thread blocks (the paper: one) *)
  hbm_bw_gbs : float;  (** device memory bandwidth, GB/s *)
  nvlink_bw_gbs : float;  (** per-direction NVLink port bandwidth, GB/s *)
  nvlink_latency : Engine_time.t;  (** wire + fabric first-byte latency *)
  pcie_bw_gbs : float;
  pcie_latency : Engine_time.t;
  ib_bw_gbs : float;  (** per-NIC InfiniBand line rate, GB/s (scale-out) *)
  ib_latency : Engine_time.t;  (** inter-node IB first-byte latency *)
  kernel_launch : Engine_time.t;  (** host-side cost of a kernel launch *)
  kernel_teardown : Engine_time.t;
      (** device-side scheduling cost paid by every discrete kernel instance *)
  coop_launch : Engine_time.t;  (** cooperative-launch host cost *)
  stream_sync : Engine_time.t;
  event_record : Engine_time.t;
  event_sync : Engine_time.t;
  stream_wait_event : Engine_time.t;
  memcpy_api : Engine_time.t;  (** host cost of issuing cudaMemcpyAsync *)
  host_barrier : Engine_time.t;  (** OpenMP/MPI barrier across host threads *)
  grid_sync : Engine_time.t;  (** cooperative-groups grid.sync() *)
  host_initiated_latency : Engine_time.t;
      (** extra first-byte latency of a host-triggered transfer *)
  gpu_initiated_latency : Engine_time.t;
      (** first-byte latency of an in-kernel peer store / NVSHMEM put *)
  nvshmem_signal : Engine_time.t;  (** signal update delivery *)
  nvshmem_put_overhead : Engine_time.t;  (** per-call issue cost inside kernel *)
  nvshmem_strided_elem : Engine_time.t;
      (** extra per-element cost of strided iput/iget (non-coalesced) *)
  nvshmem_wait_latency : Engine_time.t;
      (** remote-write visibility/detection latency paid by a signal wait
          that actually blocked *)
  mpi_overhead : Engine_time.t;  (** host-side per-message send/recv cost *)
  mpi_strided_elem : Engine_time.t;
      (** per-element staging cost of a non-contiguous (Type_vector) message
          from device memory: CUDA-aware MPI packs such datatypes through
          host memory element-wise, the pathology behind the paper's
          communication-dominated DaCe 2D baseline *)
  persistent_tile_efficiency : float;
      (** compute efficiency of a co-residency-limited persistent kernel that
          software-tiles an over-saturating domain (paper §4.1.4: < 1) *)
  persistent_tile_threshold : int;
      (** grid points per resident thread beyond which the software-tiling
          penalty applies (saturating-but-modest domains tile cleanly) *)
  reg_cache_kb_per_sm : int;
      (** register-file capacity PERKS can devote to domain caching, per SM
          (A100 register file: 256 KB; some is the working set) *)
  smem_cache_kb_per_sm : int;
      (** shared-memory capacity likewise (A100: up to 164 KB per SM) *)
}

val a100_hgx : t
(** 8-way NVLink/NVSwitch HGX node of the paper's evaluation. *)

val h100_hgx : t
(** The successor part: more SMs and bandwidth, slightly faster device-side
    synchronization, identical host API costs — so the CPU-Free advantage
    grows (useful for what-if sweeps). *)

val by_name : (string * t) list
val of_name : string -> t option
(** Lookup by short name ("a100", "h100"); case-insensitive. *)

val co_resident_blocks : t -> int
(** Maximum grid size for a cooperative (persistent) launch. *)

val lookahead_bound : t -> Engine_time.t
(** Minimum latency of any cross-device or host<->device interaction: the
    cheapest link latency plus the cheapest initiation cost — within this
    long, one device cannot affect another. Zero when the architecture
    models free signalling. The engine microbenchmark's halo latency. *)

val fabric_profile : t -> Cpufree_machine.Topology.profile
(** The architecture's link numbers as a topology-layer profile, ready to
    instantiate a machine graph. The profile's short name is the {!by_name}
    key when the architecture is a stock one. *)

val hbm_bytes_per_ns : t -> float
val nvlink_bytes_per_ns : t -> float
val pcie_bytes_per_ns : t -> float

val pp : Format.formatter -> t -> unit
