(** Blocking client for the scenario daemon.

    One {!t} is one connection. Requests can be pipelined — {!send} any
    number, then {!recv} the responses (the server answers [stats],
    [shutdown-acks] and cache hits in arrival order, and admitted runs in
    batch-completion order, so match responses to requests by [id], not by
    position). {!request} is the sequential convenience. *)

type t

val connect : string -> (t, string) result
(** Connect to the daemon's socket path. *)

val send : t -> Protocol.request -> unit
val recv : t -> (Protocol.response, string) result
(** Read one response frame ({!Protocol.response_of_frame}). [Error] on
    EOF, a framing violation or a malformed response frame. *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** [send] then [recv] — assumes no other response is outstanding. *)

val run :
  t -> id:int -> Cpufree_core.Scenario.t -> (Protocol.response, string) result
(** [Error] with {!Cpufree_core.Scenario.validate}'s reason, sending
    nothing, when the scenario is invalid: its line could read back as
    another scenario. *)

val stats : t -> id:int -> (Protocol.stats_payload, string) result

val shutdown : t -> id:int -> (unit, string) result
(** Ask the daemon to drain and exit; waits for the acknowledgement. *)

val close : t -> unit
