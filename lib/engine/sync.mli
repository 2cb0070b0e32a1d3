(** Synchronization objects for simulated processes.

    All primitives are built on {!Engine.suspend}; each names its engine at
    creation and may only be used by processes of that engine. *)

(** Integer-valued signal cell, the simulated counterpart of an NVSHMEM
    signal flag or a device-memory spin flag. Writers {!Flag.set} or
    {!Flag.add}; readers block until a predicate over the value holds. *)
module Flag : sig
  type t

  val create : ?name:string -> Engine.t -> int -> t
  val name : t -> string
  val get : t -> int

  val set : t -> int -> unit
  (** Store a value and wake satisfied waiters. *)

  val add : t -> int -> unit

  val wait_until : ?waits_on:string -> t -> (int -> bool) -> unit
  (** Block the calling process until the predicate holds for the flag value.
      Returns immediately if it already holds. [waits_on] names the process
      group expected to satisfy the wait (see {!Engine.suspend}). *)

  val wait_ge : ?waits_on:string -> t -> int -> unit
  val wait_eq : ?waits_on:string -> t -> int -> unit

  val await : ?waits_on:string -> t -> deadline:Time.t -> (int -> bool) -> [ `Ok | `Timeout ]
  (** As {!wait_until}, but give up at the absolute simulated [deadline]:
      [`Ok] as soon as the predicate holds, [`Timeout] at the deadline
      otherwise. The timeout path is what the fault-aware NVSHMEM wait
      builds its retry/backoff/resend loop on. *)
end

(** Reusable n-party barrier, the simulated counterpart of
    [cooperative_groups::grid_group::sync] and of host-side OpenMP/MPI
    barriers. *)
module Barrier : sig
  type t

  val create : ?name:string -> Engine.t -> int -> t
  val parties : t -> int

  val wait : t -> unit
  (** Block until [parties] processes have called [wait] for the current
      generation, then release them all and reset. *)

  val generation : t -> int
  (** Number of completed barrier episodes. *)
end

(** Unbounded FIFO channel: sends never block, receives block while empty. *)
module Mailbox : sig
  type 'a t

  val create : ?name:string -> Engine.t -> unit -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

(** Serially reusable bandwidth resource (an interconnect port, a copy
    engine). A booking occupies the resource for a duration; concurrent
    bookings queue in arrival order, which is how link contention arises in
    the interconnect model. *)
module Resource : sig
  type t

  val create : ?name:string -> Engine.t -> unit -> t
  val name : t -> string

  val free_at : t -> Time.t
  (** Earliest time a new booking could start. *)

  val book : t -> duration:Time.t -> Time.t
  (** Reserve the resource for [duration] starting at the later of now and
      {!free_at}; returns the start time. Does not block — pair with
      [Engine.delay] to model the occupancy. *)

  val book_many : t array -> duration:Time.t -> Time.t
  (** Reserve several resources for the same interval (a transfer crossing an
      egress and an ingress port); the common start time is the latest
      {!free_at}. The array must be non-empty. *)

  val busy : t -> Time.t
  (** Total booked time so far (for utilization accounting). *)
end

(** Counting semaphore. *)
module Semaphore : sig
  type t

  val create : ?name:string -> Engine.t -> int -> t
  val acquire : t -> unit
  val release : t -> unit
  val available : t -> int
end
