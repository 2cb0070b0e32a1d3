(** Deterministic splittable pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator draws from an explicitly seeded
    generator so that experiments are bit-for-bit reproducible. [split]
    derives an independent stream, used to give each simulated device its own
    generator without cross-coupling. *)

type t

val create : int -> t
(** Generator seeded from the given integer. *)

val split : t -> t
(** Derive an independent generator; advances the parent. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

