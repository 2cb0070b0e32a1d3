(** The JSON string escaper every artifact writer shares. *)

val add : Buffer.t -> string -> unit
(** Append [s] to the buffer escaped for the inside of a JSON string
    literal (RFC 8259), without the quotes: the double quote and the
    backslash get a backslash, newline, carriage return and tab use their
    short forms, every other byte below 0x20 becomes a lowercase [\u00XX],
    and all other bytes, non-ASCII included, are copied as they are. *)
