(** Array-backed binary min-heap.

    Elements are ordered by a comparison function supplied at creation;
    ties must be broken by the caller so that the heap order is total and
    runs are reproducible. The routing fallback's Dijkstra settles vertices
    from one, and it is the reference the engine's monomorphic event queue
    is tested against. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val clear : 'a t -> unit

