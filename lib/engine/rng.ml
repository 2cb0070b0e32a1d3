type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (int64 t) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits: OCaml's native int is 63-bit, so a 63-bit value would
     wrap negative under Int64.to_int. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0)

