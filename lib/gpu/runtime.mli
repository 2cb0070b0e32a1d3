(** The CUDA-like host runtime: the API surface a host thread drives.

    Every function here is called from a simulated host process and charges
    that process the corresponding API latency before any effect reaches a
    device — this is precisely the "host-incurred latency" the CPU-Free model
    eliminates. *)

type ctx

exception Coop_launch_error of string
(** Cooperative launch rejected: requested grid exceeds the co-residency
    limit (paper §4.1.4). *)

val create :
  Cpufree_engine.Engine.t ->
  ?arch:Arch.t ->
  ?env:Cpufree_obs.Sim_env.t ->
  num_gpus:int ->
  unit ->
  ctx
(** Build a runtime context from a simulation environment. [env.topology]
    selects the machine graph the fabric instantiates (default: the
    single-node NVSwitch HGX of the paper's evaluation). [env.faults] is
    activated here with [env.fault_seed] and [num_gpus]: the fabric degrades
    per the plan, and kernel costs on straggler devices are scaled by
    {!compute_scale}. [env.metrics] attaches observability instruments to
    the fabric ({!Interconnect.create}) and to this API surface
    ([runtime.api_calls], [runtime.launches], [runtime.coop_launches],
    [runtime.stream_ops]). *)

val engine : ctx -> Cpufree_engine.Engine.t
val arch : ctx -> Arch.t
val num_gpus : ctx -> int
val device : ctx -> int -> Device.t
val net : ctx -> Interconnect.t

val faults : ctx -> Cpufree_fault.Fault.plan option
(** The active fault plan, if this run injects faults. *)

val metrics : ctx -> Cpufree_obs.Metrics.t option
(** The metrics registry this context reports into, if one was attached. *)

val gpu_group : int -> string
(** Canonical wait-for-graph group tag for device [g]'s processes
    (["gpu3"]); host threads use ["host"]. *)

val compute_scale : ctx -> gpu:int -> float
(** Straggler compute-latency multiplier for a device: 1.0 unless the
    fault plan says otherwise. *)

val scaled_cost : ctx -> gpu:int -> Cpufree_engine.Time.t -> Cpufree_engine.Time.t
(** [cost] scaled by {!compute_scale} — the identity (not even a float
    round-trip) when no plan is active. *)

val endpoint_of_buffer : Buffer.t -> Interconnect.endpoint

val api : ctx -> ?lane:string -> label:string -> Cpufree_engine.Time.t -> unit
(** Charge the calling (host) process an API latency, tracing it. *)

val launch :
  ctx -> stream:Stream.t -> name:string -> ?cost:Cpufree_engine.Time.t -> (unit -> unit) -> unit
(** Launch a discrete kernel: the host pays the launch latency, then the
    kernel body runs in-order on [stream], preceded by the device-side
    scheduling cost and any fixed [cost], traced as compute. The body runs in
    the stream's process and may itself block (device-initiated transfers,
    flag waits). *)

val memcpy_async :
  ctx -> stream:Stream.t -> src:Buffer.t -> src_pos:int -> dst:Buffer.t -> dst_pos:int -> len:int ->
  unit
(** [cudaMemcpyAsync]: host pays the issue cost; the copy (data movement plus
    interconnect occupancy) executes in-order on [stream]. *)

val stream_synchronize : ctx -> Stream.t -> unit
(** Host blocks until the stream drains, paying the sync call cost. *)

val event_record : ctx -> Event.t -> Stream.t -> unit
val event_synchronize : ctx -> Event.t -> unit
val stream_wait_event : ctx -> Stream.t -> Event.t -> unit

val launch_cooperative :
  ctx -> dev:Device.t -> name:string -> blocks:int -> threads_per_block:int ->
  roles:(string * (Coop.t -> unit)) list ->
  Cpufree_engine.Sync.Flag.t
(** Launch a persistent cooperative kernel: one simulated process per role,
    sharing a grid handle. Host pays the cooperative-launch cost. Returns a
    flag that becomes the number of finished roles; the kernel has exited
    when it reaches [List.length roles].

    @raise Coop_launch_error if [blocks] exceeds co-residency or a role list
    is empty. *)

val join_kernel : ctx -> roles:int -> Cpufree_engine.Sync.Flag.t -> unit
(** Block until a cooperative kernel's completion flag reaches [roles]. *)
