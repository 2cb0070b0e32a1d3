(** The CUDA-like host runtime: the API surface a host thread drives.

    Every function here is called from a simulated host process and charges
    that process the corresponding API latency before any effect reaches a
    device — this is precisely the "host-incurred latency" the CPU-Free model
    eliminates. A step-driven caller (a driver running as a chain of
    {!Cpufree_engine.Engine.after} steps) uses the [_k] form of a call, which
    runs its continuation once the call returns and pushes the events the
    fiber form does. *)

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
    (["gpu3"]); host threads use ["host"]. Interned when the context is
    created, so a wait that names its peer formats nothing. *)

val scaled_cost : ctx -> gpu:int -> Cpufree_engine.Time.t -> Cpufree_engine.Time.t
(** [cost] scaled by the device's straggler multiplier — the identity (not even a float
    round-trip) when no plan is active. *)

val endpoint_of_buffer : Buffer.t -> Interconnect.endpoint

val launch :
  ctx -> stream:Stream.t -> name:string -> ?cost:Cpufree_engine.Time.t -> (unit -> unit) -> unit
(** Launch a discrete kernel: the host pays the launch latency, then the
    kernel body runs in-order on [stream], preceded by the device-side
    scheduling cost and any fixed [cost], traced as compute. The body runs in
    the stream's process and may itself block (device-initiated transfers,
    flag waits). *)

val launch_k :
  ctx -> stream:Stream.t -> name:string -> cost:Cpufree_engine.Time.t -> (unit -> unit) ->
  (unit -> unit) -> unit
(** {!launch} as steps, for a body that never blocks: the host pays the
    launch latency and continues, and the kernel runs on [stream] as a
    chain of steps — teardown, cost, body, compute interval — that pushes
    the events {!launch}'s kernel does. *)

val memcpy_async :
  ctx -> stream:Stream.t -> src:Buffer.t -> src_pos:int -> dst:Buffer.t -> dst_pos:int -> len:int ->
  unit
(** [cudaMemcpyAsync]: host pays the issue cost; the copy (data movement plus
    interconnect occupancy) executes in-order on [stream], as steps. *)

val memcpy_async_k :
  ctx -> stream:Stream.t -> src:Buffer.t -> src_pos:int -> dst:Buffer.t -> dst_pos:int -> len:int ->
  (unit -> unit) -> unit
(** {!memcpy_async} as steps. *)

val stream_synchronize : ctx -> Stream.t -> unit
(** Host blocks until the stream drains, paying the sync call cost. *)

val stream_synchronize_k : ctx -> Stream.t -> (unit -> unit) -> unit
(** {!stream_synchronize} as steps. *)

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

val launch_cooperative_k :
  ctx -> dev:Device.t -> name:string -> blocks:int -> threads_per_block:int ->
  roles:(string * (Coop.t -> (unit -> unit) -> unit)) list ->
  Cpufree_engine.Sync.Flag.t
(** {!launch_cooperative} for roles written as steps: a role gets the grid
    and the continuation to run when its share is over, and runs as one
    {!Cpufree_engine.Engine.handover} of its process after the teardown
    delay. Each role keeps its process name, pid and group, and so every
    diagnostic reads as under {!launch_cooperative}; its process resumes
    as a fiber only to start and to end the teardown delay. *)

val join_kernel : ctx -> roles:int -> Cpufree_engine.Sync.Flag.t -> unit
(** Block until a cooperative kernel's completion flag reaches [roles]. *)
