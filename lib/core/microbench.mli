(** Engine-throughput microbenchmark: a synthetic multi-GPU ring whose
    processes alternate compute delays with halo messages, so nearly every
    event is a delay, a scheduled callback or a flag wake — the engine's
    hot path with next to no model work around it.

    Each rank (one per GPU) alternates compute delays with a halo message to
    a neighbour, landing one {!Cpufree_gpu.Arch.lookahead_bound} later, then
    blocks until its own inbound halo arrives. The model's observable output
    (simulated time, event count, byte count, a payload checksum and
    optionally the canonical trace) is deterministic; [bench -- micro]
    reports its events/sec. *)

type pattern =
  | Ring  (** rank [g] sends to [(g+1) mod gpus] *)
  | Shift of int  (** rank [g] sends to [(g+k) mod gpus] *)

type config = {
  gpus : int;
  iters : int;  (** halo-exchange rounds per rank *)
  ticks_per_iter : int;  (** compute delays between exchanges *)
  tick_ns : int;  (** simulated length of one compute delay *)
  bytes_per_msg : int;  (** accounted payload of one halo message *)
  pattern : pattern;
  arch : Cpufree_gpu.Arch.t;  (** supplies the halo latency *)
  traced : bool;  (** record compute spans *)
  metrics : Cpufree_obs.Metrics.t option;
      (** When set, each rank updates per-rank [micro.ticks] / [micro.msgs] /
          [micro.msg_bytes] counters inside the hot loops — the honest
          vehicle for the instrumentation-overhead figure. Never changes
          simulated behaviour or {!output}. *)
}

val default : config
(** 8 GPUs, 200 rounds, 4 ticks of 400 ns, 4 KiB messages, ring pattern on
    the A100 HGX architecture, untraced, unmetered. *)

type output = {
  sim_ns : int;  (** final simulated clock *)
  events : int;  (** total engine events executed *)
  bytes : int;  (** halo payload bytes delivered *)
  checksum : int;  (** order-independent digest of all rank states and payloads *)
  spans : Cpufree_engine.Trace.span list;  (** canonical order; empty when untraced *)
}

type report = {
  wall_sec : float;
  major_words : float;  (** major-heap words allocated during the run *)
  out : output;
}

val equal_output : output -> output -> bool
(** Structural equality of everything instrumentation may not change. *)

val events_per_sec : report -> float

val run_seq : config -> report
(** Build the model and drain it with {!Cpufree_engine.Engine.run}. *)
