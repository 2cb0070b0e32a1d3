(** Simulated time.

    All simulation timestamps and durations are integer nanoseconds. Integer
    time keeps event ordering exact and reproducible; at nanosecond
    resolution a 63-bit integer covers ~292 years of simulated time, far
    beyond any experiment in this repository. *)

type t = private int
(** A point in time or a duration, in nanoseconds. *)

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t

val of_ns_float : float -> t
(** Round a fractional nanosecond count to the nearest tick (at least 0). *)

val of_sec_float : float -> t
val to_ns : t -> int
val to_us_float : t -> float
val to_ms_float : t -> float
val to_sec_float : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b], saturating at {!zero}. *)

val diff : t -> t -> t
(** [diff a b] is [|a - b|]. *)

val scale : t -> float -> t
val max : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns, µs, ms or s). *)

val to_string : t -> string
