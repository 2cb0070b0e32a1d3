(** Comparing a distributed result against its sequential reference — the
    one acceptance rule behind every [--verify]. *)

type t
(** The largest absolute error seen so far, and whether any was not
    finite. *)

val create : unit -> t
val add : t -> actual:float -> expected:float -> unit

val result : t -> tolerance:float -> (float, string) result
(** [Ok worst] when every added [|actual - expected|] is finite and the
    largest is at most [tolerance] ([Ok 0.] when nothing was added).
    [Error] when one is NaN or infinite — a diverged run must not pass
    because NaN compares false — or when the largest exceeds
    [tolerance]. *)
