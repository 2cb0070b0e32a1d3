(** Peer-to-peer direct load/store over unified virtual addressing.

    The Baseline-P2P variant's boundary kernels write straight into a
    neighbour's memory with ordinary stores — GPU-initiated on the data path
    (cheap) while synchronization remains host-controlled (expensive). This
    helper is called from kernel bodies, as steps. *)

val copy_k :
  Cpufree_gpu.Runtime.ctx -> from_dev:int -> src:Cpufree_gpu.Buffer.t -> src_pos:int ->
  dst:Cpufree_gpu.Buffer.t -> dst_pos:int -> len:int -> (unit -> unit) -> unit
(** Device [from_dev] streams [len] elements from [src] into [dst] (possibly
    a peer's buffer) with direct stores, and continues once they have
    landed. *)

