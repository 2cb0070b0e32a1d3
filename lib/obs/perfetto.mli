(** Chrome/Perfetto trace-event exporter for structured tracing v2.

    Emits a JSON object (["traceEvents"] array) loadable in ui.perfetto.dev
    or chrome://tracing:
    - spans become ["X"] complete events with [pid] = the device implied
      by the lane ("gpuN..." maps to pid N+1, everything else to the
      host/interconnect pid 0) and [tid] = the lane,
    - zero-length {!Cpufree_engine.Trace.Marker} spans become ["i"] instant
      events (fault injections, stall diagnoses),
    - flow arrows become ["s"]/["f"] flow-event pairs tying an NVSHMEM put's
      source span to its remote delivery,
    - counters and gauges of an attached metrics registry become ["C"]
      counter tracks (one sample at the trace origin, one at its end — the
      registry stores totals, not time series); the [engine.*] namespace
      is omitted, since it describes the simulator rather than the
      simulated machine (it remains in the metrics JSON export),
    - process/thread name metadata rows label every pid/tid.

    The output is canonical: events are emitted from
    {!Cpufree_engine.Trace.sorted_spans}, {!Cpufree_engine.Trace.sorted_flows}
    and {!Metrics.items}, so for a fixed seed the bytes are identical on
    every run. *)

val pid_of_lane : string -> int
(** ["gpu3.comp"] is pid 4; ["host"], ["fabric"], anything else is 0. *)

val to_json_string : ?metrics:Metrics.t -> Cpufree_engine.Trace.t -> string
(** Render the trace (and optionally a metrics registry) as a Perfetto JSON
    document. *)
