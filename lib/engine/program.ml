type 'a instr =
  | Do of (unit -> unit)
  | Wait of ((unit -> unit) -> unit)
  | After of ('a -> Time.t)
  | Compute of { cost : 'a -> Time.t; body : unit -> unit; lane : string Lazy.t; label : string }
  | Skip_unless of ('a -> bool) * int
  | Jump of int

let guard c body = Skip_unless (c, List.length body) :: body

let loop ~init ~continue ~update body =
  Do init :: guard continue (body @ [ Do update; Jump (-(List.length body + 2)) ])

(* [resume] continues the program: from an event, it runs instructions
   until one waits; called by a [Wait] before that returns (the wait was not
   needed), it only notes that the loop goes on. A [Compute] is met twice:
   it waits out its cost from [since], then runs its body and logs. *)
let run eng code state finish =
  let n = Array.length code in
  let pc = ref 0 and running = ref false and went_on = ref false in
  let computing = ref false and since = ref Time.zero in
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
        | After cost ->
          pc := i + 1;
          Engine.after eng (cost state) resume;
          running := false
        | Compute c when !computing ->
          pc := i + 1;
          computing := false;
          c.body ();
          Engine.log_compute eng ~since:!since ~lane:c.lane ~label:c.label
        | Compute c ->
          computing := true;
          since := Engine.now eng;
          Engine.after eng (c.cost state) resume;
          running := false
    done
  in
  go ()
