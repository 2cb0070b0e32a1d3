(** Wire protocol of the scenario daemon.

    Transport: a Unix domain socket carrying length-prefixed frames. Each
    frame is [<decimal byte length>\n<payload>]; the decimal header keeps
    the framing readable in captures and trivially implementable from any
    language, and {!max_frame} bounds a frame so a corrupt header cannot
    make the server allocate unboundedly.

    A request payload is one JSON document. Requests name an operation:
    [run] (execute or serve a cached {!Cpufree_core.Scenario.t}, carried as
    its [Scenario.to_string] line in a string field [scenario]), [stats]
    (counters snapshot), [shutdown] (drain and exit).

    A response payload is [<header length>\n<header><metrics><trace>]
    ({!response_to_frame}). The header is the compact {!response_to_json}
    document with each present artifact's text replaced by its byte length,
    e.g. ["artifacts":{"metrics":6120,"trace":52311}]; the artifacts follow
    the header raw — metrics first, then trace, each absent one taking no
    bytes — so no artifact is escaped on the way out or unescaped on the
    way in. Every response has this layout; one without artifacts is its
    header alone. Responses carry a [status] of [ok], [error] (the request
    was unservable — the connection stays usable) or [overload] (admission
    control rejected the run; retry later). *)

(** {1 Messages} *)

type op =
  | Run of Cpufree_core.Scenario.t
  | Stats
  | Shutdown

type request = { req_id : int; req_op : op }
(** [req_id] is echoed verbatim in the response so clients can pipeline. *)

type chaos_summary = {
  completed : bool;
  trigger : string option;
  dropped : int;
  delayed : int;
  resent : int;
  retried : int;
}
(** Fault-injection outcome, present when the scenario carried a fault
    plan (mirrors {!Cpufree_core.Measure.chaos}). *)

type run_payload = {
  label : string;
  gpus : int;
  iterations : int;
  total_ns : int;
  per_iter_ns : int;
  comm_ns : int;
  overlap : float;  (** fraction of comm hidden under compute *)
  bytes_moved : int;
  chaos : chaos_summary option;
  metrics : string option;  (** the [metrics.json] artifact, schema-validated *)
  trace : string option;  (** the Perfetto [trace.json] artifact, schema-validated *)
}

type stats_payload = {
  requests : int;  (** requests parsed (all ops) *)
  hits : int;  (** runs served from the cache *)
  misses : int;  (** runs admitted for execution *)
  coalesced : int;  (** admitted runs that piggybacked on an identical one *)
  overloads : int;  (** runs rejected by admission control *)
  errors : int;  (** error responses sent *)
  simulations : int;  (** simulations actually executed *)
  cache_entries : int;
}

type body =
  | Run_result of run_payload
  | Stats_result of stats_payload
  | Shutdown_ack

type response =
  | Ok_resp of { id : int; cached : bool; digest : string option; body : body }
      (** [cached] is true when no fresh simulation ran for this request;
          [digest] is the scenario content hash for [Run_result] bodies. *)
  | Error_resp of { id : int; message : string }
  | Overload_resp of { id : int }

val request_to_json : request -> Cpufree_core.Json.t

val request_of_json : Cpufree_core.Json.t -> (request, string) result
(** Total: any JSON value gives [Ok] or an [Error] naming what is wrong —
    for a [run] request whose scenario line {!Cpufree_core.Scenario.of_string}
    rejects, its reason. *)

val response_to_json : response -> Cpufree_core.Json.t
(** The whole response as one JSON document, artifacts as strings. *)

val response_of_json : Cpufree_core.Json.t -> (response, string) result

val response_to_frame : response -> string list
(** The parts of a response payload for {!write_frame}: the header line
    and header, then each present artifact's own string, uncopied. *)

val response_of_frame : string -> (response, string) result
(** Decode a response payload: parse the header, then take each artifact
    with one [String.sub]. Total: a bad header length, a malformed header,
    a negative artifact length, one that overruns the payload, or bytes
    left after the artifacts give [Error]. *)

val payload_equal : run_payload -> run_payload -> bool
(** Byte-level equality of two run payloads (including artifacts) — what
    the cache self-check and the smoke tests compare. *)

(** {1 Framing} *)

val max_frame : int
(** Upper bound on a frame payload (16 MiB). *)

val write_frame : Unix.file_descr -> string list -> unit
(** Write one [<len>\n<payload>] frame whose payload is the parts in order,
    each written from its own string, looping over short writes.
    @raise Unix.Unix_error as [Unix.write] does (e.g. [EPIPE]). *)

(** Incremental frame reassembly for a non-blocking reader: feed raw bytes
    as they arrive, pull complete frames out. *)
module Framebuf : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> len:int -> unit
  (** Append [len] bytes from the start of the buffer. *)

  val next : t -> (string option, string) result
  (** The earliest complete frame, if one is buffered ([Ok None] when more
      bytes are needed). [Error] on a malformed or oversized length
      header, or when the first 25 bytes hold no newline — the stream is
      unrecoverable and the connection should be dropped. The verdict
      depends only on the bytes, not on how they arrived. *)
end

val read_frame : Unix.file_descr -> Framebuf.t -> (string, string) result
(** Blocking convenience for clients: read until [buf] yields a frame.
    [Error] on EOF or a framing violation. *)
