(* In-memory spans and counters for the traced run.

   A span wraps one call from the benchmark into a [lib/] layer: name,
   start, end, parent span and the operation it belongs to. Nothing is
   recorded unless [enabled] is set, so the untraced run pays one branch
   per call. Spans are written out once, at the end, as a Perfetto JSON
   document. *)

module J = Cpufree_core.Json

type span = { id : int; name : string; op : int; parent : int; start : float; stop : float }

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1
let current_op = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let origin = ref 0.0

let now = Unix.gettimeofday

let reset () =
  spans := [];
  stack := [];
  next_id := 1;
  current_op := 0;
  Hashtbl.reset counters;
  origin := now ()

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; name; op = !current_op; parent; start; stop = now () } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let add name v =
  if !enabled then
    Hashtbl.replace counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* --- per-layer summary ----------------------------------------------------- *)

type layer_stat = { calls : int; total : float; self : float }

(* Self time: a span's duration minus the part its children cover. Spans of
   one thread nest properly, so the children's durations never overlap. *)
let stats () =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start) +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let prev = Option.value ~default:{ calls = 0; total = 0.0; self = 0.0 } (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name
        { calls = prev.calls + 1; total = prev.total +. d; self = prev.self +. self })
    !spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let stat name =
  Option.value ~default:{ calls = 0; total = 0.0; self = 0.0 } (List.assoc_opt name (stats ()))

(* Mean duration of one call, in [scale] units per second (1e3 = ms). *)
let mean name ~scale =
  let s = stat name in
  if s.calls = 0 then 0.0 else s.total /. float_of_int s.calls *. scale

(* --- Perfetto export ------------------------------------------------------- *)

let to_perfetto () =
  let us t = (t -. !origin) *. 1e6 in
  let ordered =
    List.stable_sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) (List.rev !spans)
  in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("pid", J.Int 0);
        ("tid", J.Int 0);
        ("ts", J.Float (Float.max 0.0 (us s.start)));
        ("dur", J.Float (Float.max 0.0 ((s.stop -. s.start) *. 1e6)));
        ("args", J.Obj [ ("op", J.Int s.op); ("span", J.Int s.id); ("parent", J.Int s.parent) ]);
      ]
  in
  let meta =
    J.Obj
      [
        ("name", J.String "process_name");
        ("ph", J.String "M");
        ("pid", J.Int 0);
        ("tid", J.Int 0);
        ("args", J.Obj [ ("name", J.String "perfbench") ]);
      ]
  in
  J.to_string ~indent:0 (J.Obj [ ("traceEvents", J.List (meta :: List.map event ordered)) ])
