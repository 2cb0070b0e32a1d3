(** Execution timeline, standing in for the paper's Nsight screenshots.

    Spans are recorded per lane ("gpu0.comp", "gpu0.comm", "host", ...) and
    can be rendered as an ASCII timeline (Figures 2.1b and 5.1b) or exported
    as CSV for external plotting. *)

type kind = Compute | Communication | Synchronization | Api | Idle | Marker

type span = {
  lane : string;
  label : string;
  kind : kind;
  t0 : Time.t;
  t1 : Time.t;
}

type flow = {
  fid : int;  (** correlation id, unique per arrow within a trace *)
  flabel : string;
  f_src_lane : string;
  f_src_t : Time.t;
  f_dst_lane : string;
  f_dst_t : Time.t;  (** never earlier than [f_src_t] *)
}
(** A flow arrow: a causal edge between two lanes — an NVSHMEM put's issue
    on the source PE's lane connected to its delivery on the destination
    PE's lane. Rendered as Perfetto ["s"]/["f"] flow events. *)

type t

val create : ?flows:bool -> unit -> t
(** [flows] (default [false]) opts this trace into structured tracing v2:
    {!add_flow} records arrows (it is a silent no-op otherwise), and
    instrumented model code keys richer recording — remote-delivery spans,
    fault/stall instant markers — off {!flows_enabled}. Legacy traces keep
    it off so their span streams stay byte-identical. *)

val enabled : t option -> bool

val flows_enabled : t option -> bool
(** Whether the sink exists {e and} was created with [~flows:true]. *)

val add : t -> lane:string -> label:string -> kind:kind -> t0:Time.t -> t1:Time.t -> unit

val add_opt :
  t option -> lane:string -> label:string -> kind:kind -> t0:Time.t -> t1:Time.t -> unit
(** No-op when the trace is [None]; lets instrumented code avoid branching. *)

val add_instant : t -> lane:string -> label:string -> at:Time.t -> unit
(** Record an instant marker (a zero-length {!Marker} span): a fault
    injected, a stall diagnosed. Exported as a Perfetto ["i"] instant. *)

val add_instant_opt : t option -> lane:string -> label:string -> at:Time.t -> unit

val add_flow :
  t -> id:int -> label:string ->
  src_lane:string -> src_t:Time.t -> dst_lane:string -> dst_t:Time.t -> unit
(** Record a flow arrow. Silently ignored unless the trace was created with
    [~flows:true], so call sites need no branching.
    @raise Invalid_argument if [dst_t] is earlier than [src_t]. *)

val add_flow_opt :
  t option -> id:int -> label:string ->
  src_lane:string -> src_t:Time.t -> dst_lane:string -> dst_t:Time.t -> unit

val flows : t -> flow list
(** All flow arrows in recording order. *)

val compare_flow : flow -> flow -> int
(** Canonical flow order: (src_t, dst_t, id, label, lanes). *)

val sorted_flows : t -> flow list

val spans : t -> span list
(** All spans in recording order. *)

val compare_span : span -> span -> int
(** Canonical span order: (t0, t1, lane, label, kind). Recording order is a
    scheduling artifact of the engine driver; this order is not. *)

val sorted_spans : t -> span list
(** All spans in canonical {!compare_span} order — the representation to use
    when comparing traces across engine execution modes. *)

val merge_into : into:t -> t list -> unit
(** Append every span of [sources] to [into] in canonical order, and every
    flow arrow in canonical {!compare_flow} order. Used at the end of a run
    to fold the engine's trace into a caller's sink. *)

val lanes : t -> string list
(** Distinct lanes, sorted. *)

val busy_time : t -> lane:string -> Time.t
(** Sum of the raw span durations on a lane. Each span contributes its full
    length, so an instant covered by [k] overlapping spans is counted [k]
    times (not merely twice) and the sum can exceed the lane's wall-clock
    window; use {!busy_time_merged} when overlap should count once. *)

val busy_time_merged : t -> lane:string -> Time.t
(** Wall-clock during which the lane has at least one span in flight:
    overlapping spans are merged ({!Intervals.covered}) and count once, so
    this never exceeds the lane's observed window. Use this for utilization;
    {!busy_time} remains the raw per-span sum. *)

val busy_time_kind : t -> kind:kind -> Time.t

val window : t -> (Time.t * Time.t) option
(** Earliest start and latest end over all spans. *)

val render_ascii : ?width:int -> t -> string
(** One row per lane, time flowing left to right. Each cell shows the kind of
    the span covering that instant: [#] compute, [=] communication,
    [|] synchronization, [a] API call, [.] idle. *)

val to_csv : t -> string

val to_chrome_json : t -> string
(** Chrome trace-event format ("X" complete events, microsecond timestamps,
    one thread row per lane): load in chrome://tracing or Perfetto. *)

val clear : t -> unit
