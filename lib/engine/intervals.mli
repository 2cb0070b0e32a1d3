(** Interval algebra over simulated time.

    The primitive every wall-clock accounting question reduces to: turn a bag
    of (start, end) spans into a sorted disjoint cover, intersect two covers,
    and sum their lengths. Runs are measured with {!Log}; the list
    functions are the simple reference it is tested against.

    Representation invariant for the outputs of {!merge} and {!intersect}:
    sorted by start, pairwise disjoint, every interval non-empty. [merge]
    accepts arbitrary input (unsorted, overlapping, empty intervals);
    [intersect] requires both arguments to already satisfy the invariant. *)

type t = Time.t * Time.t
(** A half-open interval [(start, end)]; empty when [end <= start]. *)

val merge : t list -> t list
(** Union of intervals as a sorted, disjoint list. Empty intervals vanish. *)

val intersect : t list -> t list -> t list
(** Intersection of two sorted, disjoint interval lists. *)

val total : t list -> Time.t
(** Sum of interval lengths — only a measure of the union when the list is
    disjoint (e.g. a {!merge} result). *)

val covered : t list -> Time.t
(** [total (merge intervals)]: the measure of the union of an arbitrary bag
    of intervals, counting overlapping stretches once. *)

(** A busy log: the compute and communication intervals of one run, kept
    as flat [int] arrays with no lane or label, from which a run's compute
    time, communication time and overlap are measured. Each side holds the
    union of what was logged as a sorted, disjoint cover, merged as
    intervals arrive; intervals that end no earlier than every one before (an
    engine's [\[since, now)]) insert in amortized constant time, and any
    order is accepted. It holds exactly what {!merge} and {!intersect}
    need and nothing a timeline needs, so an engine can keep one on every
    run. *)
module Log : sig
  type t

  val create : unit -> t

  val compute : t -> t0:Time.t -> t1:Time.t -> unit
  (** Log a compute interval. Empty intervals ([t1 <= t0]) are dropped. *)

  val comm : t -> t0:Time.t -> t1:Time.t -> unit
  (** Log a communication interval. Empty intervals are dropped. *)

  val comm_and_overlap : t -> Time.t * float
  (** [(comm, overlap)]: the measure of the union of the comm intervals
      ([total (merge comm)]), and the fraction of it that the union of the
      compute intervals covers ([total (intersect (merge comm) (merge
      compute))] over [comm]; 0 when there is no communication). One pass
      over the two covers. *)

  val compute_total : t -> Time.t
  (** The measure of the union of the compute intervals ([total (merge
      compute)]). *)
end
