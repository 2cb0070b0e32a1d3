(** JSON export of a {!Cpufree_obs.Metrics} registry — the [metrics.json]
    artifact behind [--metrics-out] — and its schema check. Test laws hold
    every rendered document to {!validate}; the run path does not re-check
    it.

    Document shape (schema version 1):
    {v
    { "schema_version": 1,
      "metrics": [
        { "name": "fabric.bytes", "labels": {}, "kind": "counter", "value": 123 },
        { "name": "...", "labels": {"port": "gpu0.egress"}, "kind": "gauge", "value": 7 },
        { "name": "...", "labels": {}, "kind": "histogram",
          "count": 9, "sum": 512, "min": 1, "max": 100,
          "buckets": [[1, 3], [7, 6]] } ] }
    v}
    Metrics appear in canonical (name, labels) order, so the document is
    byte-stable across runs and worker counts. *)

val to_json : Cpufree_obs.Metrics.t -> Json.t

val validate : Json.t -> (unit, string) result
(** Structural schema check of an emitted (or re-parsed) document. *)
