(* The in-process workloads (paper-figures, cluster-allreduce): one client,
   one operation at a time, whole rounds of the seeded multiset until the
   run's time is up, so every run sees the mix in its exact proportions. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : (float * float) list;  (** (start, host seconds) of each correct op *)
  mutable event_ops : (float * float * int) list;  (** the same, with engine events, where known *)
  mutable wall : float;
  mutable rounds : int;
  mutable rss_mb : float;  (** VmHWM after [rss_rounds] rounds *)
  mutable errors : string list;
  mutable round_hashes : string list;  (** first round, in order *)
  results : (string, Cpufree_core.Measure.result) Hashtbl.t;  (** by op key *)
}

let new_tally () =
  {
    attempted = 0; failed = 0; latencies = []; event_ops = []; wall = 0.0; rounds = 0; rss_mb = nan;
    errors = []; round_hashes = []; results = Hashtbl.create 16;
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

(* Run one op, check its output against the recorded one. *)
let run_op ~traced table t ~first_round op =
  let key = Gen.key op in
  let t0 = Host.now () in
  let outcome = try Ok (Ops.exec ~traced op) with e -> Error (Gen.describe op ^ ": " ^ Printexc.to_string e) in
  let dt = Host.now () -. t0 in
  t.attempted <- t.attempted + 1;
  match outcome with
  | Error e -> fail t e
  | Ok o -> (
    let output = Check.md5 o.Ops.fields in
    if first_round then t.round_hashes <- output :: t.round_hashes;
    match Check.verify table ~key ~output with
    | Error e -> fail t e
    | Ok recorded -> (
      match o.Ops.events with
      | Some n when n <> recorded ->
        fail t (Printf.sprintf "%s: %d engine events, recorded %d" key n recorded)
      | _ ->
        t.latencies <- (t0, dt) :: t.latencies;
        if recorded > 0 then t.event_ops <- (t0, dt, recorded) :: t.event_ops;
        Option.iter (fun r -> if first_round then Hashtbl.replace t.results key r) o.Ops.result))

let run_round ?(calibrate = false) ~traced table t round =
  let first_round = t.rounds = 0 in
  Array.iteri
    (fun i op ->
      Spans.current_op := (t.rounds * Array.length round) + i + 1;
      let gc0 = if traced then Some (Gc.quick_stat ()) else None in
      Spans.with_span "op" (fun () -> run_op ~traced table t ~first_round op);
      if calibrate then Calib.tick ();
      Option.iter
        (fun (g0 : Gc.stat) ->
          let g1 = Gc.quick_stat () in
          Spans.add "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
          Spans.add "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)))
        gc0)
    round;
  t.rounds <- t.rounds + 1

(* Peak RSS creeps up from round to round, so it is read after a fixed
   amount of work: a faster program, running more rounds, does not read as
   a bigger one. *)
let rss_rounds = 2

(* Whole rounds until at least [seconds] have passed, at least
   [rss_rounds] have run and at least [Host.p90_samples] ops are timed. *)
let run ~seconds table round =
  let t = new_tally () in
  Calib.take ();
  let start = Host.now () in
  while
    t.rounds < rss_rounds || Host.now () -. start < seconds || List.length t.latencies < Host.p90_samples
  do
    run_round ~calibrate:true ~traced:false table t round;
    if t.rounds = rss_rounds then t.rss_mb <- Host.peak_rss_mb ()
  done;
  t.wall <- Host.now () -. start;
  Calib.take ();
  t

(* The paper's speedup formula over the first round's headline runs:
   mean |measured - paper| in percentage points. *)
let paper_gap t =
  let find i = Hashtbl.find_opt t.results (Gen.key Gen.headline_runs.(i)) in
  let module M = Cpufree_core.Measure in
  let gaps =
    List.filter_map
      (fun (label, paper, b, o, comm) ->
        match (find b, find o) with
        | Some rb, Some ro ->
          let measured =
            if comm then
              let sec = Cpufree_engine.Time.to_sec_float in
              (sec rb.M.comm -. sec ro.M.comm) /. sec rb.M.comm *. 100.0
            else M.speedup_pct ~baseline:rb ~ours:ro
          in
          Some (label, paper, measured)
        | _ -> None)
      Gen.headline
  in
  if List.length gaps <> List.length Gen.headline then None
  else
    Some
      ( gaps,
        List.fold_left (fun acc (_, p, m) -> acc +. Float.abs (m -. p)) 0.0 gaps
        /. float_of_int (List.length gaps) )
