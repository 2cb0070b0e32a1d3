(** Work-stealing domain pool for independent simulation scenarios.

    Each benchmark scenario owns its own engine and shares no mutable state,
    so figure sweeps are embarrassingly parallel across host cores (OCaml 5
    domains). Workers claim items one at a time from a shared cursor;
    results are returned in input order, so [map f xs] is observationally
    identical to [List.map f xs] — only faster. *)

val default_jobs : unit -> int
(** Pool size used when [?jobs] is omitted: the [CPUFREE_JOBS] environment
    variable if set (must be a positive integer, otherwise
    [Invalid_argument]), else [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] applies [f] to every element of [xs] on a pool of
    [jobs] domains (clamped to [max 1 jobs], capped at [List.length xs])
    and returns the results in input order. With an effective pool of 1
    this is exactly [List.map f xs] on the calling domain — the sequential
    fallback for single-core hosts. If any application raises, the
    exception of the lowest-index failing element is re-raised after all
    workers drain. [f] must not share mutable state across elements. *)
