(** Jacobi update arithmetic (2D 5-point, 3D 7-point) over slab storage, plus
    the sequential reference solver used for verification.

    Storage layout for a chunk of [p] owned planes of [w] elements:
    [(p + 2) * w] elements, plane 0 being the upper halo and plane [p + 1]
    the lower halo. In-plane edge cells are Dirichlet-fixed: the update
    copies them through. Phantom buffers make every function a cost-free
    no-op on the data side. *)

val apply :
  Problem.dims -> src:Cpufree_gpu.Buffer.t -> dst:Cpufree_gpu.Buffer.t -> p0:int -> p1:int -> unit
(** Update storage planes [~p0] to [~p1] (inclusive, owned-plane coordinates
     1-based) of [dst] from [src]. *)

val reference : Problem.t -> float array
(** Run the problem's Jacobi iteration sequentially on the full global
    domain (storage layout [(planes_global + 2) * plane_elems], initialized
    with {!Problem.init_value}); returns the final state. Requires a modest
    domain; intended for test-sized problems. *)

