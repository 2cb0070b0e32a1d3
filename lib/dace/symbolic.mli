(** Integer symbolic expressions for SDFG map ranges, memlet subsets and
    interstate assignments (the role SymPy plays in DaCe). *)

type expr =
  | Const of int
  | Sym of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** integer division *)

type cond = Lt of expr * expr | Le of expr * expr | Eq of expr * expr | Ge of expr * expr

val int : int -> expr
val sym : string -> expr
val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr

exception Unbound_symbol of string

val eval : env:(string -> int option) -> expr -> int
(** @raise Unbound_symbol when a symbol has no binding.
    @raise Division_by_zero on division by an expression evaluating to 0. *)

(** {2 Compilation}

    {!compile} turns an expression into a closure once, so that a program
    executed many times does not walk the tree or look names up on every
    evaluation. Symbols resolve at compile time to a {!Fixed} value or to
    an integer {!Slot} of a {!slots} frame read at run time. A subtree
    whose leaves are all constants or fixed symbols is folded to {!Now};
    everything else, including a constant subtree whose evaluation raises,
    stays {!Later}. The closure raises exactly what {!eval} raises on the
    corresponding environment: [Unbound_symbol] for a symbol [resolve]
    does not know or a slot not yet assigned, [Division_by_zero] for a
    zero divisor — checked by a qcheck law in the test suite. *)

type slots
(** A frame of integer variables, each bound or not. *)

type binding =
  | Fixed of int  (** a value known at compile time *)
  | Slot of int  (** the index of a run-time variable in a {!slots} frame *)

type 'a staged = Now of 'a  (** folded at compile time *) | Later of (slots -> 'a)

val make_slots : int -> slots
(** [n] unbound slots. *)

val copy_slots : slots -> slots
val assign : slots -> int -> int -> unit
(** [assign s i v] binds slot [i] to [v]. *)

val force : 'a staged -> slots -> 'a
val compile : resolve:(string -> binding option) -> expr -> int staged
val compile_cond : resolve:(string -> binding option) -> cond -> bool staged

val simplify : expr -> expr
(** Constant folding and arithmetic identities ([x+0], [x*1], [x*0]...). *)

val free_symbols : expr -> string list
val is_const : expr -> int option
val to_string : expr -> string
val cond_to_string : cond -> string
val pp : Format.formatter -> expr -> unit
val equal : expr -> expr -> bool
(** Structural equality modulo simplification. *)
