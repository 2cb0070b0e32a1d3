type expr =
  | Const of int
  | Sym of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type cond = Lt of expr * expr | Le of expr * expr | Eq of expr * expr | Ge of expr * expr

let int n = Const n
let sym s = Sym s
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)

exception Unbound_symbol of string

let rec eval ~env = function
  | Const n -> n
  | Sym s -> (
    match env s with Some v -> v | None -> raise (Unbound_symbol s))
  | Add (a, b) -> Stdlib.( + ) (eval ~env a) (eval ~env b)
  | Sub (a, b) -> Stdlib.( - ) (eval ~env a) (eval ~env b)
  | Mul (a, b) -> Stdlib.( * ) (eval ~env a) (eval ~env b)
  | Div (a, b) ->
    let d = eval ~env b in
    if d = 0 then raise Division_by_zero else Stdlib.( / ) (eval ~env a) d

(* --- compilation to closures --------------------------------------------- *)

type slots = { values : int array; bound : bool array }
type binding = Fixed of int | Slot of int
type 'a staged = Now of 'a | Later of (slots -> 'a)

let make_slots n = { values = Array.make n 0; bound = Array.make n false }
let copy_slots s = { values = Array.copy s.values; bound = Array.copy s.bound }

let assign s i v =
  s.values.(i) <- v;
  s.bound.(i) <- true

let force = function Now v -> fun _ -> v | Later f -> f

(* Each [Later] closure evaluates its operands in [eval]'s order — the
   right operand first, the divisor before the dividend — so that an
   expression with two failing operands raises the same exception. *)
let lift2 op a b =
  match (a, b) with
  | Now x, Now y -> Now (op x y)
  | a, b ->
    let f = force a and g = force b in
    Later
      (fun s ->
        let y = g s in
        op (f s) y)

let rec compile ~resolve e =
  let binop op a b = lift2 op (compile ~resolve a) (compile ~resolve b) in
  match e with
  | Const n -> Now n
  | Sym name -> (
    match resolve name with
    | Some (Fixed v) -> Now v
    | Some (Slot i) ->
      Later (fun s -> if s.bound.(i) then s.values.(i) else raise (Unbound_symbol name))
    | None -> Later (fun _ -> raise (Unbound_symbol name)))
  | Add (a, b) -> binop Stdlib.( + ) a b
  | Sub (a, b) -> binop Stdlib.( - ) a b
  | Mul (a, b) -> binop Stdlib.( * ) a b
  | Div (a, b) -> (
    match (compile ~resolve a, compile ~resolve b) with
    | Now x, Now y when y <> 0 -> Now (Stdlib.( / ) x y)
    | a, b ->
      let f = force a and g = force b in
      Later
        (fun s ->
          let d = g s in
          if d = 0 then raise Division_by_zero else Stdlib.( / ) (f s) d))

let compile_cond ~resolve c =
  let cmp op a b = lift2 op (compile ~resolve a) (compile ~resolve b) in
  match c with
  | Lt (a, b) -> cmp (fun (x : int) y -> x < y) a b
  | Le (a, b) -> cmp (fun (x : int) y -> x <= y) a b
  | Eq (a, b) -> cmp Int.equal a b
  | Ge (a, b) -> cmp (fun (x : int) y -> x >= y) a b

let rec simplify e =
  match e with
  | Const _ | Sym _ -> e
  | Add (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (Stdlib.( + ) x y)
    | Const 0, s | s, Const 0 -> s
    | a, b -> Add (a, b))
  | Sub (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (Stdlib.( - ) x y)
    | s, Const 0 -> s
    | a, b -> if a = b then Const 0 else Sub (a, b))
  | Mul (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (Stdlib.( * ) x y)
    | Const 0, _ | _, Const 0 -> Const 0
    | Const 1, s | s, Const 1 -> s
    | a, b -> Mul (a, b))
  | Div (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y <> 0 -> Const (Stdlib.( / ) x y)
    | s, Const 1 -> s
    | a, b -> Div (a, b))

let free_symbols e =
  let rec go acc = function
    | Const _ -> acc
    | Sym s -> s :: acc
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> go (go acc a) b
  in
  List.sort_uniq String.compare (go [] e)

let is_const e = match simplify e with Const n -> Some n | _ -> None

let rec to_string = function
  | Const n -> string_of_int n
  | Sym s -> s
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)
  | Div (a, b) -> Printf.sprintf "(%s / %s)" (to_string a) (to_string b)

let cond_to_string = function
  | Lt (a, b) -> Printf.sprintf "%s < %s" (to_string a) (to_string b)
  | Le (a, b) -> Printf.sprintf "%s <= %s" (to_string a) (to_string b)
  | Eq (a, b) -> Printf.sprintf "%s == %s" (to_string a) (to_string b)
  | Ge (a, b) -> Printf.sprintf "%s >= %s" (to_string a) (to_string b)

let pp fmt e = Format.pp_print_string fmt (to_string e)
let equal a b = simplify a = simplify b
