type t = { mutable worst : float; mutable non_finite : float option }

let create () = { worst = 0.0; non_finite = None }

let add t ~actual ~expected =
  let err = Float.abs (actual -. expected) in
  if not (Float.is_finite err) then (if t.non_finite = None then t.non_finite <- Some err)
  else if err > t.worst then t.worst <- err

let result t ~tolerance =
  match t.non_finite with
  | Some err -> Error (Printf.sprintf "max abs error is not finite (%g)" err)
  | None ->
    if t.worst <= tolerance then Ok t.worst
    else Error (Printf.sprintf "max abs error %.3e exceeds tolerance %.1e" t.worst tolerance)
