type 'a instr =
  | Do of (unit -> unit)
  | Wait of ((unit -> unit) -> unit)
  | Skip_unless of ('a -> bool) * int
  | Jump of int

(* [resume] continues the program: from an event, it runs instructions
   until one waits; called by a [Wait] before that returns (the wait was not
   needed), it only notes that the loop goes on. *)
let run code state finish =
  let n = Array.length code in
  let pc = ref 0 and running = ref false and went_on = ref false in
  let rec resume () = if !running then went_on := true else go ()
  and go () =
    running := true;
    while !running do
      let i = !pc in
      if i >= n then begin
        running := false;
        finish ()
      end
      else
        match code.(i) with
        | Do f ->
          pc := i + 1;
          f ()
        | Skip_unless (c, skip) -> pc := if c state then i + 1 else i + 1 + skip
        | Jump d -> pc := i + d
        | Wait w ->
          pc := i + 1;
          went_on := false;
          w resume;
          if not !went_on then running := false
    done
  in
  go ()
