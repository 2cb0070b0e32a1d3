(** Metrics registry: typed counters, gauges and histograms registered by
    name and label set, cheap enough for the event hot path. Each
    instrument owns one cell.

    Registration is idempotent: asking for an instrument that already exists
    (same name, same labels) returns the existing handle. Instrument
    everything at model build time and only bump cells from the hot
    path. *)

type t
(** A registry. *)

type labels = (string * string) list
(** Label set, e.g. [[("port", "gpu0.egress")]]. Stored sorted by key. *)

val create : unit -> t

(** {2 Instruments} *)

module Counter : sig
  type h
  (** Handle to a monotonically increasing counter. *)

  val incr : h -> unit
  val add : h -> int -> unit
  (** Bump the counter. @raise Invalid_argument on a negative amount. *)

  val value : h -> int
end

module Gauge : sig
  type h
  (** Handle to a sampled value: high-water marks, final clocks,
      configuration constants. *)

  val set : h -> int -> unit
  val value : h -> int
end

module Histogram : sig
  type h
  (** Handle to a log2-bucketed distribution of non-negative integers
      (latencies in ns, sizes in bytes). Bucket [i] holds values whose bit
      width is [i] — i.e. [v] in [[2^(i-1), 2^i - 1]] for [i >= 1], and
      [v <= 0] in bucket 0. *)

  val observe : h -> int -> unit
  val count : h -> int
  val sum : h -> int
end

val counter : t -> name:string -> ?labels:labels -> unit -> Counter.h
val gauge : t -> name:string -> ?labels:labels -> unit -> Gauge.h
val histogram : t -> name:string -> ?labels:labels -> unit -> Histogram.h
(** Register (or fetch) an instrument. @raise Invalid_argument if the
    name/labels pair is already registered with a different instrument
    kind. *)

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
(** Everything registered, in canonical (name, labels) order — the
    representation exporters consume. *)
