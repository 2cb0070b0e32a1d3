(** The scenario daemon: simulation-as-a-service over a Unix domain socket.

    One server owns a listening socket, a result cache, and a worker
    domain. The accept/read loop (the calling domain) parses {!Protocol}
    frames and serves what it can without simulating: [stats] snapshots,
    [shutdown], and [run] requests whose digest is already cached.
    Everything else is admitted to a bounded queue — or refused with an
    [overload] response when [max_queue] runs are already in flight.

    The worker serves one admitted run at a time. It pops a job and
    re-checks the cache, so a request that raced a completing identical
    run becomes a coalesced hit instead of a second simulation. A miss
    simulates on the worker domain, is published to the cache and is
    answered at once. Responses to one connection never interleave: every
    frame write is serialized under an I/O lock.

    Because simulations are deterministic, a cache hit is byte-identical
    to a recompute. The server does not re-check that: the serve-smoke
    test compares a cached payload with an in-process {!Exec.run} of the
    same scenario. *)

type config = {
  socket_path : string;
  cache_capacity : int;  (** result-cache entries (default 128) *)
  max_queue : int;  (** in-flight admission bound (default 64) *)
}

val default_config : socket_path:string -> config

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** Bind (unlinking any stale socket file first), call [ready] (default:
    nothing), serve until a [shutdown] request, drain in-flight work,
    answer the shutdown, and clean up — the socket file is removed on the
    way out. Blocks the calling domain. [Error] with the reason, before
    [ready] and before any request is served, when the socket cannot be
    bound. *)
