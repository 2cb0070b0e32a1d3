(* Host-speed calibration.

   On a shared host the same work can take 50% longer from one minute to
   the next, for every program alike. A calibration slice — fixed work on
   hash tables, lists and floats, using nothing from the repository — runs
   between operations every [interval] seconds; each operation's host time
   is then scaled by [reference / slice], the slice time interpolated at the
   operation's start. Timings therefore read as seconds on a host where the
   slice takes [reference] seconds, and a slower repository shows while a
   slower host does not. *)

let interval = 0.2
let reference = 0.005

(* The slice's table is built once, so a slice allocates only short-lived
   minor-heap values and leaves the major heap (and peak RSS) as the
   workload shaped it. *)
let table =
  let h = Hashtbl.create 16 in
  for i = 1 to 15_000 do
    Hashtbl.replace h (i * 7919 land 0xFFFF) (float_of_int i)
  done;
  h

let slice () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0.0 in
  for round = 1 to 4 do
    for i = 1 to 15_000 do
      let k = ((i * 48271) + round) land 0xFFFF in
      let pair = [ Option.value ~default:1.0 (Hashtbl.find_opt table k); float_of_int i ] in
      acc := !acc +. List.fold_left ( +. ) 0.0 pair
    done
  done;
  ignore (Sys.opaque_identity !acc : float);
  Unix.gettimeofday () -. t0

(* The slice on [width] domains at once, timed until all finish. A workload
   that keeps several cores busy (the serve daemon's workers) slows down
   more than one core's worth when the host is contended; a slice as wide
   as the workload sees that too. *)
let width = ref 1

let wide_slice () =
  if !width <= 1 then slice ()
  else begin
    let t0 = Unix.gettimeofday () in
    let others = List.init (!width - 1) (fun _ -> Domain.spawn slice) in
    ignore (slice () : float);
    List.iter (fun d -> ignore (Domain.join d : float)) others;
    Unix.gettimeofday () -. t0
  end

(* (start, duration) of every slice taken, newest first. *)
let slices : (float * float) list ref = ref []
let last = ref neg_infinity

let take () =
  let at = Unix.gettimeofday () in
  slices := (at, wide_slice ()) :: !slices;
  last := Unix.gettimeofday ()

let tick () = if Unix.gettimeofday () -. !last >= interval then take ()

(* The scale factor at time [t]: [reference] over the mean of the last
   slice before [t] and the first one after it. *)
let factor_at =
  let cache = ref (0, [||]) in
  fun t ->
    let n = List.length !slices in
    if n = 0 then 1.0
    else begin
      if fst !cache <> n then cache := (n, Array.of_list (List.rev !slices));
      let a = snd !cache in
      let rec search lo hi = if lo >= hi then lo else
          let mid = (lo + hi) / 2 in
          if fst a.(mid) <= t then search (mid + 1) hi else search lo mid
      in
      let next = search 0 n in
      let before = snd a.(max 0 (next - 1)) and after = snd a.(min (n - 1) next) in
      reference /. ((before +. after) /. 2.0)
    end

let normalize ~at dt = dt *. factor_at at

let median_slice () =
  match List.sort compare (List.map snd !slices) with
  | [] -> nan
  | l -> List.nth l (List.length l / 2)
