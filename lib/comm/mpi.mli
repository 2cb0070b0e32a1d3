(** Host-side two-sided messaging (the CUDA-aware MPI of the baselines).

    Ranks map one-to-one onto host threads/GPUs. Every call is made from a
    host process and charges host-side per-message overhead; the data path of
    a matched send/recv is a {e host-initiated} device-to-device transfer.
    Strided messages ([Type_vector], used by the DaCe 2D baseline) pay an
    additional per-element pack/unpack cost. *)

type t

val init : Cpufree_gpu.Runtime.ctx -> t

(** A message region: [count] elements starting at [pos], [stride] apart
    (contiguous when [stride = 1]). *)
type region = { buf : Cpufree_gpu.Buffer.t; pos : int; stride : int; count : int }

val contiguous : Cpufree_gpu.Buffer.t -> pos:int -> len:int -> region
val type_vector : Cpufree_gpu.Buffer.t -> pos:int -> stride:int -> count:int -> region

type request

val isend : t -> rank:int -> dst:int -> tag:int -> region -> request
val irecv : t -> rank:int -> src:int -> tag:int -> region -> request

val wait : t -> request -> unit
val waitall : t -> request list -> unit
val test : request -> bool

val barrier : t -> rank:int -> unit
(** Host-side barrier across all ranks. *)

