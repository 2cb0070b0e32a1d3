(** Minimal JSON document builder, printer and reader, without an external
    dependency: benchmark results ([BENCH_results.json]), the artifacts'
    schema checks and the daemon's wire protocol. Strings are escaped per
    RFC 8259 by {!Cpufree_obs.Json_escape}, the escaper the Perfetto writer
    shares; non-finite floats print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render a document. [indent] spaces per nesting level (default 2);
    [~indent:0] produces compact single-line output. *)

val to_channel : ?indent:int -> out_channel -> t -> unit
(** [to_string] plus a trailing newline, written to the channel. *)

val of_string : string -> (t, string) result
(** Parse a JSON document — the inverse of {!to_string}. Accepts standard
    RFC 8259 JSON; a number without a fraction or exponent parses as [Int]
    (an error when it does not fit an OCaml [int]), any other number as
    [Float]. [Error] carries a message with the byte offset, e.g.
    ["JSON parse error at byte 7: unterminated string"]. The parser
    allocates only the tree it returns: a string without escapes is one
    [String.sub], an escaped one is decoded straight into a string of its
    final length. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any; [None] on
    non-objects. *)

(** The reader {!of_string} is built from, for checkers that walk a document
    in one pass without building a {!t} ({!Trace_json.validate_string}).
    Each reader steps past what it reads, or raises the error {!of_string}
    would report there; {!Scan.document} turns it into the same message. *)
module Scan : sig
  type cursor

  val document : string -> (cursor -> 'a) -> ('a, string) result
  (** Read a whole document: [read] must leave only whitespace after it. *)

  val skip_ws : cursor -> unit

  val peek : cursor -> char
  (** The byte under the cursor, ['\000'] at the end of input. *)

  val skip : cursor -> unit
  (** Check one value and step past it, copying no string out. *)

  val string : cursor -> string
  val number : cursor -> t

  val iter_array : cursor -> (int -> unit) -> unit
  (** [f i] is called before element [i] and must read exactly one value. *)

  val iter_object : cursor -> (string -> unit) -> unit
  (** [f key] is called before each member's value, in document order, and
      must read exactly one value. *)
end
