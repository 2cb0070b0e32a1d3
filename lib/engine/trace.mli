(** Execution timeline, standing in for the paper's Nsight screenshots.

    Spans are recorded per lane ("gpu0.comp", "gpu0.comm", "host", ...) and
    can be rendered as an ASCII timeline (Figures 2.1b and 5.1b) or exported
    to Perfetto ([Cpufree_obs.Perfetto]).

    A trace is for someone who reads spans: a timeline, a Perfetto export,
    a test. A run's comm time and overlap do not need one; they come from
    the engine's always-on busy log ({!Engine.busy}), so an engine carries
    a trace only when a caller asked for spans. *)

type kind = Compute | Communication | Synchronization | Api | Marker

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
    {!add_flow_opt} records arrows (it is a silent no-op otherwise), and
    instrumented model code keys richer recording — remote-delivery spans,
    fault/stall instant markers — off {!flows_enabled}. Legacy traces keep
    it off so their span streams stay byte-identical. *)

val flows_enabled : t option -> bool
(** Whether the sink exists {e and} was created with [~flows:true]. *)

val add : t -> lane:string -> label:string -> kind:kind -> t0:Time.t -> t1:Time.t -> unit

val add_opt :
  t option -> lane:string -> label:string -> kind:kind -> t0:Time.t -> t1:Time.t -> unit
(** No-op when the trace is [None]; lets instrumented code avoid branching. *)

val add_instant_opt : t option -> lane:string -> label:string -> at:Time.t -> unit
(** Record an instant marker (a zero-length {!Marker} span): a fault
    injected, a stall diagnosed. Exported as a Perfetto ["i"] instant.
    No-op when the trace is [None]. *)

val add_flow_opt :
  t option -> id:int -> label:string ->
  src_lane:string -> src_t:Time.t -> dst_lane:string -> dst_t:Time.t -> unit
(** Record a flow arrow. Silently ignored when the trace is [None] or was
    not created with [~flows:true], so call sites need no branching.
    @raise Invalid_argument if [dst_t] is earlier than [src_t]. *)

val sorted_flows : t -> flow list
(** All flow arrows in canonical order: (src_t, dst_t, id, label, lanes). *)

val spans : t -> span list
(** All spans in recording order. *)

val sorted_spans : t -> span list
(** All spans in canonical order: (t0, t1, lane, label, kind). Recording
    order is a scheduling artifact of the engine driver; this order is not,
    so it is the representation to use when comparing traces. *)

val lanes : t -> string list
(** Distinct lanes, sorted. *)

val window : t -> (Time.t * Time.t) option
(** Earliest start and latest end over all spans. *)

val render_ascii : ?width:int -> t -> string
(** One row per lane, time flowing left to right. Each cell shows the kind of
    the span covering that instant: [#] compute, [=] communication,
    [|] synchronization, [a] API call, [!] marker. *)
