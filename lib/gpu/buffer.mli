(** Device memory buffers.

    A buffer is a linear array of [float] elements living on one device (or
    the host, device id {!host_device}). Buffers come in two flavours:

    - {e backed}: holds real data, so kernels can do real arithmetic and
      tests can verify numerics against a sequential reference;
    - {e phantom}: carries only metadata. Large-domain benchmark
      configurations use phantom buffers so that an 8-GPU 8192² experiment
      does not allocate gigabytes of host RAM; all cost-model charging is
      identical in both flavours.

    Any data operation silently becomes a no-op when either operand is
    phantom. *)

type t

val host_device : int
(** Pseudo device id for host allocations. *)

val create : ?phantom:bool -> device:int -> label:string -> int -> t
(** [create ~device ~label n] allocates an [n]-element buffer, zero-filled. *)

val label : t -> string
val device : t -> int
val length : t -> int

val elem_bytes : int
(** Bytes per element (4: the NVIDIA baseline codes use [float]). *)

val is_phantom : t -> bool

val get : t -> int -> float
(** Reads from a phantom buffer return [0.]. *)

val set : t -> int -> float -> unit
val fill : t -> float -> unit

val init : t -> (int -> float) -> unit
(** No-op on phantom buffers. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

val blit_strided :
  src:t -> src_pos:int -> src_stride:int -> dst:t -> dst_pos:int -> dst_stride:int -> count:int ->
  unit
(** Copy [count] single elements with independent strides (the access shape
    of [nvshmem_float_iput]). *)

val to_array : t -> float array
(** Copy of the contents; empty for phantom buffers. *)

