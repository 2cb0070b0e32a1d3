(** Synchronization objects for simulated processes.

    Each names its engine at creation and may only be used by processes of
    that engine. Every wait is written once, as steps over
    {!Engine.await}: it is called with the continuation to run once the
    wait is over, and runs it at once when it need not wait. *)

(** Integer-valued signal cell, the simulated counterpart of an NVSHMEM
    signal flag or a device-memory spin flag. Writers {!Flag.set} or
    {!Flag.add}; readers block until a predicate over the value holds. *)
module Flag : sig
  type t

  val create : ?name:string -> ?name_of:(unit -> string) -> Engine.t -> int -> t
  (** [name_of], when given, renders the name on demand instead of [name]
      (as {!Engine.spawn_callbacks}'s does): a flag made per message pays for
      formatting only when a diagnostic reads it. *)

  val name : t -> string
  val get : t -> int

  val set : t -> int -> unit
  (** Store a value and wake satisfied waiters, newest first. Waking one
      waiter, or none, allocates nothing. *)

  val add : t -> int -> unit

  val wait_until_k : ?waits_on:string -> t -> (int -> bool) -> (unit -> unit) -> unit
  (** Run the continuation once the predicate holds for the flag value — at
      once if it already does. [waits_on] names the process group expected
      to satisfy the wait (see {!Engine.await}). *)

  val wait_ge_k : ?waits_on:string -> t -> int -> (unit -> unit) -> unit
  (** {!wait_until_k} for [value >= v]. A flag that already holds continues
      at once; a blocked wait files a threshold waiter, so it builds no
      predicate. Its reason, like {!wait_until_k}'s, names the value it
      blocked at. *)

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

  val wait_k : t -> (unit -> unit) -> unit
  (** Arrive, and run the continuation once [parties] processes have
      arrived for the current generation (which then resets) — at once
      when this arrival releases it. *)

  val generation : t -> int
  (** Number of completed barrier episodes. *)
end

(** Unbounded FIFO channel: sends never block, receives block while empty. *)
module Mailbox : sig
  type 'a t

  val create : ?name:string -> ?name_of:(unit -> string) -> Engine.t -> unit -> 'a t
  (** [name_of], when given, renders the name on demand instead of [name],
      as {!Flag.create}'s does. *)

  val send : 'a t -> 'a -> unit
  val receiver : 'a t -> ('a -> unit) -> unit -> unit
  (** [receiver t k] is a step that runs [k] with the next item — at once
      if one is queued, else once a send delivers one. The wait's reason
      and re-check are made once, by [receiver], so a loop that calls the
      step again from [k] (a stream serving its queue) allocates per wait
      only the engine's waker and its queue cell. *)

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
      must be non-empty. Does not block — pair with {!Engine.after} to
      model the occupancy. *)
end
