(** Metrics registry: typed counters, gauges and histograms registered by
    name and label set, cheap enough for the event hot path.

    Every instrument may be {e sharded}: it owns one cell per slot
    ([?slots] at registration, default 1), and an increment writes only the
    caller's slot. Reads ({!Counter.value}, {!items}) combine the slots;
    combination is associative and commutative (sum for counters and
    histogram buckets, max for gauges), so the observed totals do not
    depend on which slot bumped what.

    Registration is idempotent: asking for an instrument that already exists
    (same name, same labels) returns the existing handle. Instrument
    everything at model build time and only bump cells from the hot
    path. *)

type t
(** A registry. *)

type labels = (string * string) list
(** Label set, e.g. [[("port", "gpu0.egress")]]. Stored sorted by key. *)

val create : unit -> t

val enabled : t option -> bool

(** {2 Instruments} *)

module Counter : sig
  type h
  (** Handle to a monotonically increasing counter. *)

  val incr : ?slot:int -> h -> unit
  val add : ?slot:int -> h -> int -> unit
  (** Bump the counter's cell for [slot] (default 0).
      @raise Invalid_argument on a negative amount or bad slot. *)

  val value : h -> int
  (** Sum over all slots. *)
end

module Gauge : sig
  type h
  (** Handle to a sampled value. Slots (and registries) combine by [max],
      which keeps reads deterministic under sharding; use gauges for
      quantities where the maximum is the meaningful aggregate (high-water
      marks, final clocks, configuration constants). *)

  val set : ?slot:int -> h -> int -> unit
  val value : h -> int
end

module Histogram : sig
  type h
  (** Handle to a log2-bucketed distribution of non-negative integers
      (latencies in ns, sizes in bytes). Bucket [i] holds values whose bit
      width is [i] — i.e. [v] in [[2^(i-1), 2^i - 1]] for [i >= 1], and
      [v <= 0] in bucket 0. *)

  val observe : ?slot:int -> h -> int -> unit
  val count : h -> int
  val sum : h -> int
end

val counter : t -> name:string -> ?labels:labels -> ?slots:int -> unit -> Counter.h
val gauge : t -> name:string -> ?labels:labels -> ?slots:int -> unit -> Gauge.h
val histogram : t -> name:string -> ?labels:labels -> ?slots:int -> unit -> Histogram.h
(** Register (or fetch) an instrument. [slots] is the shard count; it is
    fixed at first registration. @raise Invalid_argument if the name/labels pair is already
    registered with a different instrument kind. *)

(** {2 Snapshots and merging} *)

type histogram_summary = {
  count : int;
  sum : int;
  vmin : int;  (** 0 when empty *)
  vmax : int;  (** 0 when empty *)
  buckets : (int * int) list;  (** (bucket index, occupancy), non-zero only *)
}

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of histogram_summary

type item = { name : string; labels : labels; value : value }

val items : t -> item list
(** Everything registered, in canonical (name, labels) order with slots
    combined — the representation exporters consume. *)

val merge_into : into:t -> t list -> unit
(** Fold every instrument of [sources] into [into] (creating instruments as
    needed): counters and histograms add, gauges max. Associative and
    commutative — merging shards in any grouping yields the same {!items}. *)
