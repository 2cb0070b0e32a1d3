(** Synchronization objects for simulated processes.

    Each names its engine at creation and may only be used by processes of
    that engine. A fiber blocks with {!Engine.suspend} ({!Flag.wait_until},
    {!Barrier.wait}); a step waits with the [_k] forms over
    {!Engine.await}, called with the continuation to run once the wait is
    over. Both push the same events. A fiber reaches a [_k] form through
    {!Engine.handover}. *)

(** Integer-valued signal cell, the simulated counterpart of an NVSHMEM
    signal flag or a device-memory spin flag. Writers {!Flag.set} or
    {!Flag.add}; readers block until a predicate over the value holds. *)
module Flag : sig
  type t

  val create : ?name:string -> ?name_of:(unit -> string) -> Engine.t -> int -> t
  (** [name_of], when given, renders the name on demand instead of [name]
      (as {!Engine.spawn}'s does): a flag made per message pays for
      formatting only when a diagnostic reads it. *)

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

  val wait_until_k : ?waits_on:string -> t -> (int -> bool) -> (unit -> unit) -> unit
  (** {!wait_until} as steps: runs the continuation once the predicate
      holds — at once if it already does. *)

  val wait_ge_k : ?waits_on:string -> t -> int -> (unit -> unit) -> unit

  val await_k :
    ?waits_on:string -> t -> deadline:Time.t -> (int -> bool) -> ([ `Ok | `Timeout ] -> unit) ->
    unit
  (** As {!wait_until_k}, but give up at the absolute simulated [deadline]:
      the continuation gets [`Ok] as soon as the predicate holds, and
      [`Timeout] at the deadline otherwise. The timeout path is what the
      fault-aware NVSHMEM wait builds its retry/backoff/resend loop on. *)
end

(** Reusable n-party barrier, the simulated counterpart of
    [cooperative_groups::grid_group::sync] and of host-side OpenMP/MPI
    barriers. *)
module Barrier : sig
  type t

  val create : ?name:string -> Engine.t -> int -> t

  val wait : t -> unit
  (** Block until [parties] processes have called [wait] for the current
      generation, then release them all and reset. *)

  val wait_k : t -> (unit -> unit) -> unit
  (** {!wait} as steps: runs the continuation once the generation is
      released — at once when this arrival releases it. *)

  val generation : t -> int
  (** Number of completed barrier episodes. *)
end

(** Unbounded FIFO channel: sends never block, receives block while empty. *)
module Mailbox : sig
  type 'a t

  val create : ?name:string -> Engine.t -> unit -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a

  val recv_k : 'a t -> ('a -> unit) -> unit
  (** {!recv} as steps: runs the continuation with the next item — at once
      if one is queued, else once a send delivers one. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

(** Serially reusable bandwidth resource (an interconnect port, a copy
    engine). A booking occupies the resource for a duration; concurrent
    bookings queue in arrival order, which is how link contention arises in
    the interconnect model. *)
module Resource : sig
  type t

  val create : Engine.t -> t

  val book_many : t array -> duration:Time.t -> Time.t
  (** Reserve several resources for the same interval (a transfer crossing an
      egress and an ingress port), starting at the later of now and the
      time the last of them frees up; returns the start time. The array
      must be non-empty. Does not block — pair with [Engine.delay] to model
      the occupancy. *)
end
