(** Structural validator for exported Perfetto trace documents
    ({!Cpufree_obs.Perfetto}) — the [trace.json] artifact behind
    [--trace-out] and the daemon's trace artifact.

    A valid document is a JSON object whose ["traceEvents"] list contains
    only the phases the exporter emits, with:
    - every event carrying a string ["name"], a ["pid"] and (except counter
      samples) a ["tid"],
    - ["X"] duration events carrying non-negative ["ts"]/["dur"], with
      monotone ["ts"] per (pid, tid) lane in document order,
    - flow events pairing up: every flow id has exactly one ["s"] start and
      one ["f"] finish, with the finish no earlier than the start —
      put → delivery arrows are never dangling. *)

val validate_string : string -> (unit, string) result
(** Check a written artifact in one pass over its text, building no
    {!Json.t}. The verdict and the error text are those of parsing with
    {!Json.of_string} and then checking the tree:
    - a parse error anywhere, with its byte offset, wins over a schema
      error;
    - when a member name repeats, its first occurrence counts;
    - events are checked in document order, each event's checks in the
      order listed above, and the first failure is the error;
    - flow pairing is checked last, over all flow ids. *)
