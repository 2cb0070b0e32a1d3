(** The CUDA-like host runtime: the API surface a host thread drives.

    Every function here is called from a simulated host process and charges
    that process the corresponding API latency before any effect reaches a
    device — this is precisely the "host-incurred latency" the CPU-Free model
    eliminates. Each call is written as steps: it runs its continuation once
    the call returns. *)

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
    per the plan, and kernel costs on straggler devices are scaled by the
    plan's [Fault.compute_scale]. [env.metrics] attaches observability instruments to
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

val gpu_group : ctx -> int -> string
(** Canonical wait-for-graph group tag for device [g]'s processes
    (["gpu3"]); host threads use ["host"]. Made once per device
    ({!Device.group}), so a wait that names its peer formats nothing. *)

val scaled_cost : ctx -> gpu:int -> Cpufree_engine.Time.t -> Cpufree_engine.Time.t
(** [cost] scaled by the device's straggler multiplier — the identity (not even a float
    round-trip) when no plan is active. *)

val endpoint_of_buffer : ctx -> Buffer.t -> Interconnect.endpoint
(** The fabric endpoint a buffer lives on: the host, or its GPU's
    endpoint, made once per fabric ({!Interconnect.gpu}). *)

val launch_k :
  ctx -> stream:Stream.t -> name:string -> cost:Cpufree_engine.Time.t ->
  ((unit -> unit) -> unit) -> (unit -> unit) -> unit
(** Launch a discrete kernel: the host pays the launch latency and
    continues, and the kernel runs in-order on [stream] as steps — the
    device-side teardown, the [cost] (scaled by the device's straggler
    multiplier), then the body, traced as compute until the body calls the
    continuation it is given. A body may wait (device-initiated transfers,
    signal waits) before it does. *)

val memcpy_async_k :
  ctx -> stream:Stream.t -> src:Buffer.t -> src_pos:int -> dst:Buffer.t -> dst_pos:int -> len:int ->
  (unit -> unit) -> unit
(** [cudaMemcpyAsync]: host pays the issue cost; the copy (data movement plus
    interconnect occupancy) executes in-order on [stream]. *)

val stream_synchronize_k : ctx -> Stream.t -> (unit -> unit) -> unit
(** The host pays the sync call cost, then waits until the stream drains. *)

val launch_cooperative_k :
  ctx -> dev:Device.t -> name:string -> blocks:int -> threads_per_block:int ->
  roles:(string * (Coop.t -> (unit -> unit) -> unit)) list ->
  (Cpufree_engine.Sync.Flag.t -> unit) -> unit
(** Launch a persistent cooperative kernel: the host pays the
    cooperative-launch cost, then each role starts as its own step process
    (named [<name>.gpu<d>.<role>], in the device's group), sharing a grid
    handle, and runs its body after the kernel's teardown delay; the role
    ends when its body calls the continuation it is given. The
    continuation of the launch gets a flag that becomes the number of
    finished roles; the kernel has exited when it reaches
    [List.length roles].

    @raise Coop_launch_error if [blocks] exceeds co-residency or a role list
    is empty, before the host pays anything. *)
