(* What a run prints: a human-readable table, then one JSON line. *)

module J = Cpufree_core.Json

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Per-layer metrics, from the traced run's spans and counters. Times are
   means per call; counts are totals over the traced work. Every workload
   reports every metric; one that its calls never reach is 0. *)
let per_layer ~ops ~overhead =
  let c = Spans.counter and mean = Spans.mean in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let replay = Spans.stat "machine.route_replay" in
  let engine_run = Spans.stat "engine.run" in
  let searches = float_of_int (Spans.stat "dace.search").Spans.calls in
  let hits = c "serve.hits" and misses = c "serve.misses" in
  [
    m "engine.events" "count" (c "engine.events");
    m "engine.run_ms" "ms" (mean "engine.run" ~scale:1e3);
    m "engine.ns_per_event" "ns" (ratio (engine_run.Spans.total *. 1e9) (c "engine.owned_events"));
    m "machine.instantiate_ms" "ms" (mean "machine.instantiate" ~scale:1e3);
    m "machine.route_us" "us" (ratio (replay.Spans.total *. 1e6) (c "machine.routes_resolved"));
    m "machine.routes_resolved" "count" (c "machine.routes_resolved");
    m "machine.route_rows_cached" "count" (c "machine.route_rows_cached");
    m "gpu.runtime_create_ms" "ms" (mean "gpu.runtime_create" ~scale:1e3);
    m "gpu.pairs_resolved" "count" (c "gpu.pairs_resolved");
    m "gpu.pairs_resolved_ratio" "ratio" (ratio (c "gpu.pairs_resolved") (c "gpu.pairs_possible"));
    m "gpu.api_calls" "count" (c "gpu.api_calls");
    m "gpu.launches" "count" (c "gpu.launches");
    m "gpu.transfers" "count" (c "gpu.transfers");
    m "gpu.bytes_moved" "bytes" (c "gpu.bytes_moved");
    m "comm.allreduce_device_ms" "ms" (mean "comm.allreduce_device" ~scale:1e3);
    m "comm.allreduce_host_ms" "ms" (mean "comm.allreduce_host" ~scale:1e3);
    m "comm.nvshmem_puts" "count" (c "comm.nvshmem_puts");
    m "comm.nvshmem_signal_waits" "count" (c "comm.nvshmem_signal_waits");
    m "stencil.build_ms" "ms" (mean "stencil.build" ~scale:1e3);
    m "stencil.run_ms" "ms" (mean "stencil.run" ~scale:1e3);
    m "dace.compile_ms" "ms" (mean "dace.compile" ~scale:1e3);
    m "dace.run_ms" "ms" (mean "dace.run" ~scale:1e3);
    m "dace.search_ms" "ms" (mean "dace.search" ~scale:1e3);
    m "dace.candidates" "count" (ratio (c "dace.candidates") searches);
    m "core.scenario_parse_us" "us" (mean "core.scenario_parse" ~scale:1e6);
    m "core.digest_us" "us" (mean "core.digest" ~scale:1e6);
    m "obs.perfetto_ms" "ms" (mean "obs.perfetto" ~scale:1e3);
    m "obs.trace_validate_ms" "ms" (mean "obs.trace_validate" ~scale:1e3);
    m "obs.metrics_json_ms" "ms" (mean "obs.metrics_json" ~scale:1e3);
    m "obs.artifact_bytes" "bytes" (c "obs.artifact_bytes");
    m "fault.dropped" "count" (c "fault.dropped");
    m "fault.resent" "count" (c "fault.resent");
    m "fault.retried" "count" (c "fault.retried");
    m "serve.hits" "count" hits;
    m "serve.misses" "count" misses;
    m "serve.simulations" "count" (c "serve.simulations");
    m "serve.coalesced" "count" (c "serve.coalesced");
    m "serve.overloads" "count" (c "serve.overloads");
    m "serve.errors" "count" (c "serve.errors");
    m "serve.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "serve.hit_latency_p50_ms" "ms" (c "serve.hit_latency_p50_ms");
    m "serve.miss_latency_p50_ms" "ms" (c "serve.miss_latency_p50_ms");
    m "serve.remisses" "count" (c "serve.remisses");
    m "serve.protocol_us" "us" (mean "serve.protocol" ~scale:1e6);
    m "gc.minor_mw_per_op" "MW" (ratio (c "gc.minor_words") (float_of_int ops *. 1e6));
    m "gc.major_collections" "count" (c "gc.major_collections");
    m "bench.trace_overhead_ratio" "ratio" overhead;
  ]

(* The bases of the ratios above, printed beside them. *)
let ratio_bases () =
  let c = Spans.counter in
  [
    Printf.sprintf "gpu.pairs_resolved_ratio = %.0f pairs resolved / %.0f possible (gpus^2)"
      (c "gpu.pairs_resolved") (c "gpu.pairs_possible");
    Printf.sprintf "serve.hit_ratio = %.0f hits / %.0f runs" (c "serve.hits") (c "serve.hits" +. c "serve.misses");
    Printf.sprintf "machine.route_us = %.3f ms replaying / %.0f routes"
      ((Spans.stat "machine.route_replay").Spans.total *. 1e3) (c "machine.routes_resolved");
    Printf.sprintf "engine.ns_per_event = %.3f ms in Engine.run / %.0f events"
      ((Spans.stat "engine.run").Spans.total *. 1e3) (c "engine.owned_events");
  ]

let print_layer_table ~traced_wall =
  Printf.printf "%-26s %8s %12s %12s %8s\n" "span" "calls" "total ms" "self ms" "self %";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-26s %8d %12.3f %12.3f %7.1f%%\n" name s.Spans.calls (s.Spans.total *. 1e3)
        (s.Spans.self *. 1e3)
        (if traced_wall > 0.0 then s.Spans.self /. traced_wall *. 100.0 else 0.0))
    (Spans.stats ())

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-28s %16.6g %s\n" x.name x.value x.unit_) ms

let json_line ~correct ~attempted ~failed ms =
  J.to_string ~indent:0
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj (List.map (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ])) ms) );
       ])
