(** Machine-description export: serialize a {!Cpufree_machine.Topology} as a
    schema-checked JSON document ([cpufree_run machine --json]).

    Document shape (schema_version 1):
    {v
    { "schema_version": 1, "name": "...", "nodes": N, "gpus": G,
      "endpoints": [ {"id", "name", "kind", "node", "local_gbs"} ... ],
      "ports":     [ "gpu0.egress", ... ],
      "links":     [ {"id", "src", "dst", "kind", "latency_ns",
                      "bandwidth_gbs", "ports"} ... ],
      "routes":    [ {"src", "dst", "latency_ns", "bandwidth_gbs",
                      "links"} ... ] }
    v}
    Routes cover every ordered pair of public endpoints (GPUs, hosts, NICs);
    switch internals appear only as links. On machines with more than 24
    public endpoints the route list is instead the pair matrix of a
    deterministic 24-endpoint sample (head and tail of the endpoint list)
    and the document carries ["routes_sampled"]: true — resolving the full
    matrix of a 1024-GPU cluster would rebuild the all-pairs table the lazy
    router avoids. Documents for smaller machines are unchanged and carry
    no marker. *)

val to_json : Cpufree_machine.Topology.t -> Json.t

val validate : Json.t -> (unit, string) result
(** Structural schema check: required fields present with the right shapes,
    positive node/GPU counts, non-empty route table. *)

val emit : ?indent:int -> out_channel -> Cpufree_machine.Topology.t -> (unit, string) result
(** [to_json] + {!validate} + print; nothing is written on [Error]. *)
