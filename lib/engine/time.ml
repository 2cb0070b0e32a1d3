type t = int

let zero = 0
let ns x = if x < 0 then invalid_arg "Time.ns: negative" else x
let us x = ns (x * 1_000)
let ms x = ns (x * 1_000_000)

let of_ns_float f =
  if Float.is_nan f then invalid_arg "Time.of_ns_float: nan"
  else
    let n = int_of_float (Float.round f) in
    if n > 0 then n else 0

let of_sec_float f = of_ns_float (f *. 1e9)
let to_ns t = t
let to_us_float t = float_of_int t /. 1e3
let to_ms_float t = float_of_int t /. 1e6
let to_sec_float t = float_of_int t /. 1e9
let add a b = a + b

(* [sub], [max] and [min] compare [int]s directly: the polymorphic
   [Stdlib.max] would compare through the runtime on every call. *)
let sub a b =
  let d = a - b in
  if d > 0 then d else 0

let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b
let diff a b = abs (a - b)
let scale t f = of_ns_float (float_of_int t *. f)
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let ( >= ) (a : t) b = a >= b
let ( > ) (a : t) b = a > b

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us_float t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms_float t)
  else Format.fprintf fmt "%.4fs" (to_sec_float t)

let to_string t = Format.asprintf "%a" pp t
