(* Tests for the discrete-event core: time, heap, rng, intervals, trace,
   engine, synchronization primitives. *)

module E = Cpufree_engine
module Time = E.Time
module Heap = E.Heap
module Rng = E.Rng
module Trace = E.Trace
module Engine = E.Engine
module Sync = E.Sync

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-9) msg
let check_time msg expected actual = check_int msg (Time.to_ns expected) (Time.to_ns actual)

(* A step process named [name]. *)
let proc eng ?daemon ?group name body =
  Engine.spawn_callbacks eng ~name_of:(fun () -> name) ?daemon ?group body

(* Run [f eng] as the first step of the sole initial process of a fresh
   engine and drain it. *)
let run_sim f =
  let eng = Engine.create () in
  let (_ : Engine.process) = proc eng "main" (fun () -> f eng) in
  Engine.run eng;
  eng

(* A step waits on a [Sync] object and runs [k] once it is over. *)
let wait_ge f v k = Sync.Flag.wait_ge_k f v k
let recv mb k = Sync.Mailbox.receiver mb k ()

(* --- Time -------------------------------------------------------------- *)

let time_tests =
  [
    Alcotest.test_case "constructors scale" `Quick (fun () ->
        check_int "us" 1_000 (Time.to_ns (Time.us 1));
        check_int "ms" 1_000_000 (Time.to_ns (Time.ms 1)));
    Alcotest.test_case "negative duration rejected" `Quick (fun () ->
        Alcotest.check_raises "ns" (Invalid_argument "Time.ns: negative") (fun () ->
            ignore (Time.ns (-1))));
    Alcotest.test_case "add and sub" `Quick (fun () ->
        check_time "add" (Time.ns 30) (Time.add (Time.ns 10) (Time.ns 20));
        check_time "sub" (Time.ns 10) (Time.sub (Time.ns 30) (Time.ns 20)));
    Alcotest.test_case "sub saturates at zero" `Quick (fun () ->
        check_time "saturate" Time.zero (Time.sub (Time.ns 5) (Time.ns 9)));
    Alcotest.test_case "diff is symmetric" `Quick (fun () ->
        check_time "a-b" (Time.ns 4) (Time.diff (Time.ns 9) (Time.ns 5));
        check_time "b-a" (Time.ns 4) (Time.diff (Time.ns 5) (Time.ns 9)));
    Alcotest.test_case "of_ns_float rounds" `Quick (fun () ->
        check_int "round up" 3 (Time.to_ns (Time.of_ns_float 2.6));
        check_int "round down" 2 (Time.to_ns (Time.of_ns_float 2.4));
        check_int "clamps negative" 0 (Time.to_ns (Time.of_ns_float (-5.0))));
    Alcotest.test_case "of_sec_float round trip" `Quick (fun () ->
        check_float "sec" 1.5 (Time.to_sec_float (Time.of_sec_float 1.5)));
    Alcotest.test_case "scale" `Quick (fun () ->
        check_int "half" 50 (Time.to_ns (Time.scale (Time.ns 100) 0.5)));
    Alcotest.test_case "comparisons" `Quick (fun () ->
        check_bool "lt" true Time.(Time.ns 1 < Time.ns 2);
        check_bool "ge" true Time.(Time.ns 2 >= Time.ns 2);
        check_bool "equal" true (Time.equal (Time.ns 7) (Time.ns 7)));
    Alcotest.test_case "pretty printing picks units" `Quick (fun () ->
        check Alcotest.string "ns" "999ns" (Time.to_string (Time.ns 999));
        check Alcotest.string "us" "1.50us" (Time.to_string (Time.ns 1_500));
        check Alcotest.string "ms" "2.000ms" (Time.to_string (Time.ms 2));
        check Alcotest.string "s" "2.5000s" (Time.to_string (Time.ms 2_500)));
  ]

let time_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"add commutes" ~count:200
         QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
         (fun (a, b) ->
           Time.equal (Time.add (Time.ns a) (Time.ns b)) (Time.add (Time.ns b) (Time.ns a))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sub never negative" ~count:200
         QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
         (fun (a, b) -> Time.(Time.sub (Time.ns a) (Time.ns b) >= Time.zero)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"max is upper bound" ~count:200
         QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
         (fun (a, b) ->
           let m = Time.max (Time.ns a) (Time.ns b) in
           Time.(Time.ns a <= m) && Time.(Time.ns b <= m)));
  ]

(* --- Heap -------------------------------------------------------------- *)

let heap_tests =
  [
    Alcotest.test_case "empty pops nothing" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        check_bool "empty" true (Heap.is_empty h);
        check_bool "pop" true (Heap.pop h = None);
        check_bool "peek" true (Heap.peek h = None));
    Alcotest.test_case "pops in sorted order" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
        let rec drain acc =
          match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        check (Alcotest.list Alcotest.int) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (drain []));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        Heap.push h 2;
        Heap.push h 1;
        check_bool "peek" true (Heap.peek h = Some 1);
        check_int "length" 2 (Heap.length h));
    Alcotest.test_case "clear empties" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.push h) [ 1; 2; 3 ];
        Heap.clear h;
        check_bool "empty" true (Heap.is_empty h));
  ]

let heap_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"heap sort equals list sort" ~count:100
         QCheck.(list small_int)
         (fun xs ->
           let h = Heap.create ~cmp:Int.compare in
           List.iter (Heap.push h) xs;
           let rec drain acc =
             match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
           in
           drain [] = List.sort Int.compare xs));
    (* Interleaved pushes and pops against a sorted-list model: every pop
       must yield the minimum of what has been pushed and not yet popped. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random push/pop ops match a sorted model" ~count:200
         QCheck.(list_of_size Gen.(0 -- 60) (option small_int))
         (fun ops ->
           let h = Heap.create ~cmp:Int.compare in
           let model = ref [] in
           List.for_all
             (fun op ->
               match op with
               | Some x ->
                 Heap.push h x;
                 model := List.sort Int.compare (x :: !model);
                 Heap.length h = List.length !model
               | None -> (
                 match (Heap.pop h, !model) with
                 | None, [] -> true
                 | Some got, expected :: rest ->
                   model := rest;
                   got = expected
                 | None, _ :: _ | Some _, [] -> false))
             ops));
  ]

(* --- Rng --------------------------------------------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "deterministic for a seed" `Quick (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 20 do
          check_int "same" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref 0 in
        for _ = 1 to 20 do
          if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
        done;
        check_bool "mostly different" true (!same < 3));
    Alcotest.test_case "split is independent" `Quick (fun () ->
        let parent = Rng.create 7 in
        let child = Rng.split parent in
        let c1 = Rng.int child 1000 in
        (* Same construction must yield the same child stream. *)
        let parent2 = Rng.create 7 in
        let child2 = Rng.split parent2 in
        check_int "reproducible" c1 (Rng.int child2 1000));
    Alcotest.test_case "int bound rejected when non-positive" `Quick (fun () ->
        let r = Rng.create 3 in
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int r 0)));
  ]

let rng_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int stays in bounds" ~count:300
         QCheck.(pair small_int (int_range 1 10_000))
         (fun (seed, bound) ->
           let r = Rng.create seed in
           let x = Rng.int r bound in
           x >= 0 && x < bound));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"float stays in bounds" ~count:300 QCheck.small_int (fun seed ->
           let r = Rng.create seed in
           let x = Rng.float r 5.0 in
           x >= 0.0 && x < 5.0));
  ]

(* --- Trace ------------------------------------------------------------- *)

let span lane kind t0 t1 trace =
  Trace.add trace ~lane ~label:"x" ~kind ~t0:(Time.ns t0) ~t1:(Time.ns t1)

(* --- Intervals --------------------------------------------------------- *)

module Intervals = E.Intervals

let ivals = List.map (fun (a, b) -> (Time.ns a, Time.ns b))

(* The representation invariant merge/intersect promise: sorted by start,
   non-empty, pairwise disjoint with strict gaps (touching spans coalesce). *)
let rec well_formed = function
  | [] -> true
  | [ (a, b) ] -> Time.(a < b)
  | (a, b) :: ((c, _) :: _ as rest) -> Time.(a < b) && Time.(b < c) && well_formed rest

let interval_tests =
  [
    Alcotest.test_case "merge coalesces overlap and adjacency" `Quick (fun () ->
        let m = Intervals.merge (ivals [ (5, 7); (0, 2); (2, 4); (6, 9) ]) in
        check_bool "cover" true (m = ivals [ (0, 4); (5, 9) ]);
        check_int "total" 8 (Time.to_ns (Intervals.total m)));
    Alcotest.test_case "merge drops empty intervals" `Quick (fun () ->
        check_bool "empty" true (Intervals.merge (ivals [ (3, 3); (9, 4) ]) = []));
    Alcotest.test_case "intersect overlapping covers" `Quick (fun () ->
        let a = ivals [ (0, 10); (20, 30) ] and b = ivals [ (5, 25) ] in
        check_bool "meet" true (Intervals.intersect a b = ivals [ (5, 10); (20, 25) ]);
        check_bool "disjoint" true (Intervals.intersect (ivals [ (0, 5) ]) (ivals [ (6, 9) ]) = []));
    Alcotest.test_case "covered counts overlap once" `Quick (fun () ->
        let bag = ivals [ (0, 10); (5, 15) ] in
        check_int "sum" 20 (Time.to_ns (Intervals.total bag));
        check_int "union" 15 (Time.to_ns (Intervals.covered bag)));
  ]

let gen_intervals = QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 120) (int_bound 120)))

let interval_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge output is sorted, disjoint, non-empty" ~count:300
         gen_intervals (fun xs ->
           let m = Intervals.merge (ivals xs) in
           well_formed m && Intervals.merge m = m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"covered never exceeds the raw sum" ~count:300 gen_intervals
         (fun xs ->
           let bag = List.filter (fun (a, b) -> a < b) (ivals xs) in
           Time.(Intervals.covered bag <= Intervals.total bag)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"intersect is idempotent on merged covers" ~count:300
         gen_intervals (fun xs ->
           let m = Intervals.merge (ivals xs) in
           Intervals.intersect m m = m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"intersect commutes" ~count:300
         QCheck.(pair gen_intervals gen_intervals)
         (fun (xs, ys) ->
           let a = Intervals.merge (ivals xs) and b = Intervals.merge (ivals ys) in
           Intervals.intersect a b = Intervals.intersect b a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merging merged halves equals merging the bag" ~count:300
         QCheck.(pair gen_intervals gen_intervals)
         (fun (xs, ys) ->
           Intervals.merge (ivals xs @ ivals ys)
           = Intervals.merge (Intervals.merge (ivals xs) @ Intervals.merge (ivals ys))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"intersection measure bounded by both sides" ~count:300
         QCheck.(pair gen_intervals gen_intervals)
         (fun (xs, ys) ->
           let a = Intervals.merge (ivals xs) and b = Intervals.merge (ivals ys) in
           let m = Intervals.total (Intervals.intersect a b) in
           Time.(m <= Intervals.total a) && Time.(m <= Intervals.total b)));
  ]

let trace_tests =
  [
    Alcotest.test_case "lanes sorted and distinct" `Quick (fun () ->
        let t = Trace.create () in
        span "b" Trace.Compute 0 5 t;
        span "a" Trace.Compute 2 3 t;
        span "b" Trace.Api 5 6 t;
        check (Alcotest.list Alcotest.string) "lanes" [ "a"; "b" ] (Trace.lanes t));
    Alcotest.test_case "merged busy time counts overlap once" `Quick (fun () ->
        let t = Trace.create () in
        span "a" Trace.Compute 0 10 t;
        span "a" Trace.Communication 5 15 t;
        span "a" Trace.Api 20 22 t;
        span "b" Trace.Compute 0 100 t;
        let lane_busy lane =
          Time.to_ns
            (Intervals.covered
               (List.filter_map
                  (fun (s : Trace.span) ->
                    if s.Trace.lane = lane then Some (s.Trace.t0, s.Trace.t1) else None)
                  (Trace.spans t)))
        in
        check_int "merged wall-clock" 17 (lane_busy "a");
        check_int "other lanes untouched" 100 (lane_busy "b");
        (* A third span nested in the overlap adds nothing to the cover. *)
        span "a" Trace.Compute 6 9 t;
        check_int "merged unchanged by nested span" 17 (lane_busy "a"));
    Alcotest.test_case "busy time per kind" `Quick (fun () ->
        (* The compute total is the cover of the compute intervals: [0, 10)
           and [0, 4) overlap and count once, and comm is not compute. *)
        let log = Intervals.Log.create () in
        Intervals.Log.compute log ~t0:(Time.ns 0) ~t1:(Time.ns 10);
        Intervals.Log.compute log ~t0:(Time.ns 0) ~t1:(Time.ns 4);
        Intervals.Log.comm log ~t0:(Time.ns 10) ~t1:(Time.ns 11);
        Intervals.Log.compute log ~t0:(Time.ns 12) ~t1:(Time.ns 16);
        check_int "compute" 14 (Time.to_ns (Intervals.Log.compute_total log)));
    Alcotest.test_case "window spans all" `Quick (fun () ->
        let t = Trace.create () in
        span "a" Trace.Compute 5 10 t;
        span "b" Trace.Api 2 7 t;
        match Trace.window t with
        | None -> Alcotest.fail "no window"
        | Some (lo, hi) ->
          check_int "lo" 2 (Time.to_ns lo);
          check_int "hi" 10 (Time.to_ns hi));
    Alcotest.test_case "backwards span rejected" `Quick (fun () ->
        let t = Trace.create () in
        Alcotest.check_raises "bad" (Invalid_argument "Trace.add: span ends before it starts")
          (fun () -> span "a" Trace.Compute 5 4 t));
    Alcotest.test_case "ascii render mentions lanes and legend" `Quick (fun () ->
        let t = Trace.create () in
        span "gpu0" Trace.Compute 0 100 t;
        span "gpu0" Trace.Communication 100 200 t;
        let s = Trace.render_ascii ~width:40 t in
        check_bool "lane" true (Astring.String.is_infix ~affix:"gpu0" s);
        check_bool "legend" true (Astring.String.is_infix ~affix:"legend" s));
    Alcotest.test_case "add_opt on None is a no-op" `Quick (fun () ->
        Trace.add_opt None ~lane:"x" ~label:"y" ~kind:Trace.Compute ~t0:Time.zero ~t1:Time.zero);
  ]

(* --- Engine ------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "delay advances the clock" `Quick (fun () ->
        let eng = run_sim (fun eng -> Engine.after eng (Time.us 5) ignore) in
        check_int "now" 5_000 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "sequential delays accumulate" `Quick (fun () ->
        let eng =
          run_sim (fun eng ->
              Engine.after eng (Time.ns 10) (fun () -> Engine.after eng (Time.ns 20) ignore))
        in
        check_int "now" 30 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "processes interleave by timestamp" `Quick (fun () ->
        let order = ref [] in
        let eng = Engine.create () in
        let (_ : Engine.process) =
          proc eng "slow" (fun () ->
              Engine.after eng (Time.ns 20) (fun () -> order := "slow" :: !order))
        in
        let (_ : Engine.process) =
          proc eng "fast" (fun () ->
              Engine.after eng (Time.ns 10) (fun () -> order := "fast" :: !order))
        in
        Engine.run eng;
        check (Alcotest.list Alcotest.string) "order" [ "fast"; "slow" ] (List.rev !order));
    Alcotest.test_case "same-timestamp order follows spawn order" `Quick (fun () ->
        let order = ref [] in
        let eng = Engine.create () in
        for i = 1 to 5 do
          let (_ : Engine.process) = proc eng (string_of_int i) (fun () -> order := i :: !order) in
          ()
        done;
        Engine.run eng;
        check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3; 4; 5 ] (List.rev !order));
    Alcotest.test_case "spawn from inside a process" `Quick (fun () ->
        let hit = ref false in
        let (_ : Engine.t) =
          run_sim (fun eng ->
              let (_ : Engine.process) = proc eng "child" (fun () -> hit := true) in
              Engine.after eng (Time.ns 1) ignore)
        in
        check_bool "child ran" true !hit);
    Alcotest.test_case "process_done reflects completion" `Quick (fun () ->
        let eng = Engine.create () in
        let p = proc eng "p" (fun () -> Engine.after eng (Time.ns 1) ignore) in
        check_bool "not yet" false (Engine.process_done p);
        Engine.run eng;
        check_bool "done" true (Engine.process_done p));
    Alcotest.test_case "deadlock reports blocked processes" `Quick (fun () ->
        let eng = Engine.create () in
        let flag = Sync.Flag.create ~name:"never" eng 0 in
        let (_ : Engine.process) = proc eng "stuck" (fun () -> wait_ge flag 1 ignore) in
        match Engine.run eng with
        | () -> Alcotest.fail "expected deadlock"
        | exception Engine.Deadlock names ->
          check_int "one blocked" 1 (List.length names);
          check_bool "named" true (Astring.String.is_infix ~affix:"stuck" (List.hd names)));
    Alcotest.test_case "daemons are exempt from deadlock" `Quick (fun () ->
        let eng = Engine.create () in
        let flag = Sync.Flag.create ~name:"never" eng 0 in
        let (_ : Engine.process) =
          proc eng "server" ~daemon:true (fun () -> wait_ge flag 1 ignore)
        in
        let (_ : Engine.process) =
          proc eng "main" (fun () -> Engine.after eng (Time.ns 5) ignore)
        in
        Engine.run eng;
        check_int "now" 5 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "run ~until stops the clock" `Quick (fun () ->
        let eng = Engine.create () in
        let (_ : Engine.process) =
          proc eng "long" (fun () -> Engine.after eng (Time.us 100) ignore)
        in
        Engine.run ~until:(Time.us 10) eng;
        check_int "paused" 10_000 (Time.to_ns (Engine.now eng));
        Engine.run eng;
        check_int "finished" 100_000 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "schedule_at rejects the past" `Quick (fun () ->
        let (_ : Engine.t) =
          run_sim (fun eng ->
              Engine.after eng (Time.ns 10) (fun () ->
                  Alcotest.check_raises "past"
                    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
                      Engine.schedule_at eng (Time.ns 5) (fun () -> ()))))
        in
        ());
    Alcotest.test_case "await resumes via waker" `Quick (fun () ->
        let waker = ref (fun () -> ()) in
        let resumed_at = ref Time.zero in
        let eng = Engine.create () in
        let (_ : Engine.process) =
          proc eng "sleeper" (fun () ->
              waker :=
                Engine.await eng ~reason:(fun () -> "test") (fun () -> resumed_at := Engine.now eng))
        in
        let (_ : Engine.process) =
          proc eng "waker" (fun () -> Engine.after eng (Time.ns 33) (fun () -> !waker ()))
        in
        Engine.run eng;
        check_int "resumed" 33 (Time.to_ns !resumed_at));
    Alcotest.test_case "double wake is harmless" `Quick (fun () ->
        let waker = ref (fun () -> ()) in
        let count = ref 0 in
        let eng = Engine.create () in
        let (_ : Engine.process) =
          proc eng "s" (fun () ->
              waker := Engine.await eng ~reason:(fun () -> "t") (fun () -> incr count))
        in
        let (_ : Engine.process) =
          proc eng "w" (fun () ->
              Engine.after eng (Time.ns 1) (fun () ->
                  !waker ();
                  !waker ()))
        in
        Engine.run eng;
        check_int "once" 1 !count);
  ]

(* --- Sync -------------------------------------------------------------- *)

(* [body] [n] times in a row, then [k]. *)
let rec repeat n body k = if n = 0 then k () else body (fun () -> repeat (n - 1) body k)

(* Waiters on one flag, spawned in order at time 0 (each a threshold
   wait, or a predicate wait for one exact value), then one [set] per
   nanosecond: the (instant, waiter) pairs in the order the waiters
   resume. *)
let flag_wake_order waiters sets =
  let eng = Engine.create () in
  let f = Sync.Flag.create eng 0 in
  let resumed = ref [] in
  List.iteri
    (fun i (exact, v) ->
      let resume () = resumed := (Time.to_ns (Engine.now eng), i) :: !resumed in
      let (_ : Engine.process) =
        proc eng ~daemon:true "w" (fun () ->
            if exact then Sync.Flag.wait_until_k f (fun x -> x = v) resume
            else Sync.Flag.wait_ge_k f v resume)
      in
      ())
    waiters;
  let (_ : Engine.process) =
    proc eng "setter" (fun () ->
        repeat (List.length sets)
          (fun k ->
            Engine.after eng (Time.ns 1) (fun () ->
                Sync.Flag.set f (List.nth sets (Time.to_ns (Engine.now eng) - 1));
                k ()))
          ignore)
  in
  Engine.run eng;
  List.rev !resumed

(* The reference: the waiter list is newest first, and each set wakes the
   waiters it satisfies in list order (a [List.partition]). *)
let flag_wake_reference waiters sets =
  let pending = ref (List.rev (List.mapi (fun i w -> (i, w)) waiters)) in
  List.concat
    (List.mapi
       (fun at v ->
         let ready, still =
           List.partition (fun (_, (exact, t)) -> if exact then v = t else v >= t) !pending
         in
         pending := still;
         List.map (fun (i, _) -> (at + 1, i)) ready)
       sets)

let sync_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"a flag wakes its satisfied waiters newest first" ~count:300
         QCheck.(
           pair
             (list_of_size Gen.(1 -- 8) (pair bool (int_range 1 5)))
             (list_of_size Gen.(1 -- 6) (int_range 0 6)))
         (fun (waiters, sets) ->
           flag_wake_order waiters sets = flag_wake_reference waiters sets));
  ]

let sync_tests =
  [
    Alcotest.test_case "flag wait passes immediately when satisfied" `Quick (fun () ->
        let eng =
          run_sim (fun eng ->
              let f = Sync.Flag.create eng 5 in
              wait_ge f 3 ignore)
        in
        check_int "no time" 0 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "flag wakes a waiter on set" `Quick (fun () ->
        let eng = Engine.create () in
        let f = Sync.Flag.create eng 0 in
        let woke_at = ref Time.zero in
        let (_ : Engine.process) =
          proc eng "waiter" (fun () -> wait_ge f 2 (fun () -> woke_at := Engine.now eng))
        in
        let (_ : Engine.process) =
          proc eng "setter" (fun () ->
              Engine.after eng (Time.ns 10) (fun () ->
                  Sync.Flag.set f 1;
                  Engine.after eng (Time.ns 10) (fun () -> Sync.Flag.set f 2)))
        in
        Engine.run eng;
        check_int "woke at second set" 20 (Time.to_ns !woke_at));
    Alcotest.test_case "flag add accumulates" `Quick (fun () ->
        let eng = Engine.create () in
        let f = Sync.Flag.create eng 0 in
        Sync.Flag.add f 3;
        Sync.Flag.add f (-1);
        ignore eng;
        check_int "value" 2 (Sync.Flag.get f));
    Alcotest.test_case "flag wakes multiple waiters" `Quick (fun () ->
        let eng = Engine.create () in
        let f = Sync.Flag.create eng 0 in
        let woke = ref 0 in
        for _ = 1 to 3 do
          let (_ : Engine.process) = proc eng "w" (fun () -> wait_ge f 1 (fun () -> incr woke)) in
          ()
        done;
        let (_ : Engine.process) =
          proc eng "s" (fun () -> Engine.after eng (Time.ns 1) (fun () -> Sync.Flag.set f 1))
        in
        Engine.run eng;
        check_int "all woke" 3 !woke);
    Alcotest.test_case "barrier releases all at once" `Quick (fun () ->
        let eng = Engine.create () in
        let b = Sync.Barrier.create eng 3 in
        let release_times = ref [] in
        for i = 1 to 3 do
          let (_ : Engine.process) =
            proc eng "p" (fun () ->
                Engine.after eng (Time.ns (i * 10)) (fun () ->
                    Sync.Barrier.wait_k b (fun () ->
                        release_times := Time.to_ns (Engine.now eng) :: !release_times)))
          in
          ()
        done;
        Engine.run eng;
        check (Alcotest.list Alcotest.int) "all at t=30" [ 30; 30; 30 ] !release_times;
        check_int "generation" 1 (Sync.Barrier.generation b));
    Alcotest.test_case "barrier is reusable" `Quick (fun () ->
        let eng = Engine.create () in
        let b = Sync.Barrier.create eng 2 in
        for _ = 1 to 2 do
          let (_ : Engine.process) =
            proc eng "p" (fun () -> Sync.Barrier.wait_k b (fun () -> Sync.Barrier.wait_k b ignore))
          in
          ()
        done;
        Engine.run eng;
        check_int "two generations" 2 (Sync.Barrier.generation b));
    Alcotest.test_case "back-to-back rounds at the same instant" `Quick (fun () ->
        (* Both parties hit the barrier twice with no intervening delay, so
           the second round's arrivals land at the same simulated instant as
           the first round's release. With count-based wake-ups a released
           waiter could observe the re-armed [arrived] count and stall (or
           release early); the generation counter must carry each waiter
           through exactly two rounds. *)
        let eng = Engine.create () in
        let b = Sync.Barrier.create eng 2 in
        let rounds = ref [] in
        for i = 1 to 2 do
          let (_ : Engine.process) =
            proc eng (Printf.sprintf "p%d" i) (fun () ->
                Sync.Barrier.wait_k b (fun () ->
                    rounds := (i, 1, Time.to_ns (Engine.now eng)) :: !rounds;
                    Sync.Barrier.wait_k b (fun () ->
                        rounds := (i, 2, Time.to_ns (Engine.now eng)) :: !rounds)))
          in
          ()
        done;
        Engine.run eng;
        check_int "generations" 2 (Sync.Barrier.generation b);
        check_int "four releases" 4 (List.length !rounds);
        List.iter (fun (_, _, t) -> check_int "all at t=0" 0 t) !rounds;
        (* Every process must have completed both rounds. *)
        List.iter
          (fun i ->
            check_bool "round 1" true (List.exists (fun (p, r, _) -> p = i && r = 1) !rounds);
            check_bool "round 2" true (List.exists (fun (p, r, _) -> p = i && r = 2) !rounds))
          [ 1; 2 ]);
    Alcotest.test_case "straggler joining a same-instant re-arm is not lost" `Quick (fun () ->
        (* One fast process loops the barrier twice while the slow partner
           arrives once per round at the same timestamps; a stale [arrived]
           observation would deadlock the sweep. *)
        let eng = Engine.create () in
        let b = Sync.Barrier.create eng 3 in
        let finished = ref 0 in
        for _ = 1 to 3 do
          let (_ : Engine.process) =
            proc eng "p" (fun () -> repeat 5 (Sync.Barrier.wait_k b) (fun () -> incr finished))
          in
          ()
        done;
        Engine.run eng;
        check_int "five generations" 5 (Sync.Barrier.generation b);
        check_int "all finished" 3 !finished);
    Alcotest.test_case "barrier rejects non-positive parties" `Quick (fun () ->
        let eng = Engine.create () in
        Alcotest.check_raises "zero" (Invalid_argument "Barrier.create: parties must be positive")
          (fun () -> ignore (Sync.Barrier.create eng 0)));
    Alcotest.test_case "mailbox preserves FIFO order" `Quick (fun () ->
        let eng = Engine.create () in
        let mb = Sync.Mailbox.create eng () in
        let got = ref [] in
        let (_ : Engine.process) =
          proc eng "recv" (fun () ->
              repeat 3
                (fun k ->
                  recv mb (fun x ->
                      got := x :: !got;
                      k ()))
                ignore)
        in
        let (_ : Engine.process) =
          proc eng "send" (fun () ->
              Engine.after eng (Time.ns 1) (fun () -> List.iter (Sync.Mailbox.send mb) [ 1; 2; 3 ]))
        in
        Engine.run eng;
        check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3 ] (List.rev !got));
  ]

(* --- Event queue ---------------------------------------------------------- *)

(* The engine's monomorphic queue against the polymorphic {!Heap} over
   (at, seq) pairs: on any interleaving of pushes and pops, both must pop
   the same events in the same order. Each pushed thunk records its push
   index, which is also the oracle's tie-break sequence. *)
let queue_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pops in the same (at, seq) order as Heap" ~count:300
         QCheck.(list_of_size Gen.(0 -- 200) (option (int_bound 40)))
         (fun ops ->
           let q = Engine.Queue.create () in
           let oracle = Heap.create ~cmp:compare in
           let popped = ref [] in
           let pushes = ref 0 in
           List.for_all
             (fun op ->
               match op with
               | Some at ->
                 incr pushes;
                 let id = !pushes in
                 Engine.Queue.push q (Time.ns at) (fun () -> popped := id :: !popped);
                 Heap.push oracle (at, id);
                 Engine.Queue.length q = Heap.length oracle
               | None -> (
                 match Heap.pop oracle with
                 | None -> Engine.Queue.length q = 0
                 | Some (at, id) ->
                   let head = Time.to_ns (Engine.Queue.min_time q) in
                   Engine.Queue.pop q ();
                   head = at && (match !popped with x :: _ -> x = id | [] -> false)))
             ops));
    (* The same law at scale: a prefix of 1,000–2,000 pushes keeps at least
       1,000 events live, so the heap grows several times; the interleaved
       tail then pops and pushes against a full slot table, reusing slots,
       before everything drains. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pops in the same (at, seq) order as Heap at 1,000+ live events"
         ~count:20
         QCheck.(
           pair
             (list_of_size Gen.(1000 -- 2000) (int_bound 500))
             (list_of_size Gen.(0 -- 2000) (option (int_bound 500))))
         (fun (prefix, tail) ->
           let q = Engine.Queue.create () in
           let oracle = Heap.create ~cmp:compare in
           let popped = ref [] in
           let pushes = ref 0 in
           let push at =
             incr pushes;
             let id = !pushes in
             Engine.Queue.push q (Time.ns at) (fun () -> popped := id :: !popped);
             Heap.push oracle (at, id);
             Engine.Queue.length q = Heap.length oracle
           in
           let pop () =
             match Heap.pop oracle with
             | None -> Engine.Queue.length q = 0
             | Some (at, id) ->
               let head = Time.to_ns (Engine.Queue.min_time q) in
               Engine.Queue.pop q ();
               head = at && (match !popped with x :: _ -> x = id | [] -> false)
           in
           List.for_all push prefix
           && Engine.Queue.length q >= 1000
           && List.for_all (function Some at -> push at | None -> pop ()) tail
           && List.for_all (fun _ -> pop ()) (List.init (Heap.length oracle) Fun.id)
           && Engine.Queue.length q = 0));
  ]

(* Push a fresh closure at [at] behind [filler] other events, pop and run
   everything, and return a weak pointer to the closure along with the
   (still reachable) queue. Kept out of line so no register or stack slot
   still holds the closure when the caller collects. *)
let[@inline never] popped_thunk_weak ~at ~filler =
  let q = Engine.Queue.create () in
  for i = 1 to filler do
    Engine.Queue.push q (Time.ns (i mod 7)) ignore
  done;
  let w = Weak.create 1 in
  let hits = ref 0 in
  let thunk () = incr hits in
  Weak.set w 0 (Some thunk);
  Engine.Queue.push q (Time.ns at) thunk;
  while Engine.Queue.length q > 0 do
    Engine.Queue.pop q ()
  done;
  (w, q, hits)

let queue_tests =
  [
    Alcotest.test_case "same-time events pop in push order" `Quick (fun () ->
        let q = Engine.Queue.create () in
        let out = ref [] in
        List.iter
          (fun (at, id) -> Engine.Queue.push q (Time.ns at) (fun () -> out := id :: !out))
          [ (5, 1); (3, 2); (5, 3); (3, 4); (0, 5) ];
        while Engine.Queue.length q > 0 do
          Engine.Queue.pop q ()
        done;
        check (Alcotest.list Alcotest.int) "order" [ 5; 2; 4; 1; 3 ] (List.rev !out));
    Alcotest.test_case "empty queue has no head" `Quick (fun () ->
        let q = Engine.Queue.create () in
        Alcotest.check_raises "pop" (Invalid_argument "Engine.Queue.pop: empty queue") (fun () ->
            ignore (Engine.Queue.pop q : unit -> unit)));
    Alcotest.test_case "a popped thunk is not retained" `Quick (fun () ->
        (* The heap lane (a future time behind other events) and the FIFO
           lane (time 0, the time of the last pop) both drop their
           reference at the pop. *)
        List.iter
          (fun (lane, at, filler) ->
            let w, q, hits = popped_thunk_weak ~at ~filler in
            Gc.full_major ();
            check_int (lane ^ " ran once") 1 !hits;
            check_bool (lane ^ " collected") true (Weak.get w 0 = None);
            check_int (lane ^ " queue drained") 0 (Engine.Queue.length q))
          [ ("heap", 50, 1_000); ("fifo", 0, 0) ]);
  ]

(* --- One queue for every GPU ----------------------------------------------- *)

(* The engine once split its queue into per-GPU partitions; it now keeps a
   single (at, seq) queue for every process. These tests pin what the
   partitions were responsible for and the one queue now guarantees for all
   of them: time order across GPUs, spawn order at one instant, same-instant
   (zero-lookahead) delivery, and the process registry. *)

(* A ring of [ranks] processes, one per GPU: rank [g] works a seed-dependent
   delay, posts a payload to its successor [latency] later and blocks until
   its own inbound payload for that round has landed. *)
let build_ring ~latency ~ranks ~iters ~seed () =
  let eng = Engine.create () in
  let flags = Array.init ranks (fun g -> Sync.Flag.create ~name:(Printf.sprintf "f%d" g) eng 0) in
  let totals = Array.make ranks 0 in
  for g = 0 to ranks - 1 do
    let rec round it =
      if it <= iters then
        Engine.after eng
          (Time.ns (1 + ((seed + (g * 37) + (it * 11)) mod 97)))
          (fun () ->
            let dst = (g + 1) mod ranks in
            let payload = (g * 1000) + it in
            Engine.schedule_at eng (Time.add (Engine.now eng) latency) (fun () ->
                totals.(dst) <- totals.(dst) + payload;
                Sync.Flag.add flags.(dst) 1);
            wait_ge flags.(g) it (fun () -> round (it + 1)))
    in
    let (_ : Engine.process) =
      proc eng (Printf.sprintf "rank%d" g) ~group:(Printf.sprintf "gpu%d" g) (fun () -> round 1)
    in
    ()
  done;
  (eng, totals)

let run_ring ~latency ~ranks ~iters ~seed =
  let eng, totals = build_ring ~latency ~ranks ~iters ~seed () in
  Engine.run eng;
  (Time.to_ns (Engine.now eng), Engine.events_executed eng, Array.to_list totals)

let partition_tests =
  [
    Alcotest.test_case "post crosses partitions under the sequential driver" `Quick (fun () ->
        let eng = Engine.create () in
        let hits = ref [] in
        let (_ : Engine.process) =
          proc eng "src" ~group:"gpu1" (fun () ->
              Engine.after eng (Time.ns 10) (fun () ->
                  Engine.schedule_at eng (Time.ns 50) (fun () -> hits := 2 :: !hits);
                  Engine.schedule_at eng (Time.ns 40) (fun () -> hits := 0 :: !hits)))
        in
        Engine.run eng;
        check (Alcotest.list Alcotest.int) "in time order" [ 2; 0 ] !hits;
        check_int "clock at last event" 50 (Time.to_ns (Engine.now eng)));
    Alcotest.test_case "single-partition engine falls back" `Quick (fun () ->
        let eng = Engine.create () in
        let order = ref [] in
        List.iter
          (fun g ->
            let (_ : Engine.process) = proc eng g ~group:g (fun () -> order := g :: !order) in
            ())
          [ "gpu2"; "gpu0"; "gpu1" ];
        Engine.run eng;
        check (Alcotest.list Alcotest.string) "spawn order" [ "gpu2"; "gpu0"; "gpu1" ]
          (List.rev !order);
        check_int "one event per start" 3 (Engine.events_executed eng));
    Alcotest.test_case "zero lookahead falls back to sequential" `Quick (fun () ->
        let ranks = 3 and iters = 4 in
        let ((_, events, totals) as out) = run_ring ~latency:Time.zero ~ranks ~iters ~seed:1 in
        check_bool "deterministic" true (out = run_ring ~latency:Time.zero ~ranks ~iters ~seed:1);
        (* Per rank and round: a delay and the delivery, plus a wake when the
           rank blocked before its payload landed; plus each rank's start. *)
        let floor = (ranks * iters * 2) + ranks in
        check_bool "events" true (events >= floor && events <= floor + (ranks * iters));
        let sum g = List.fold_left ( + ) 0 (List.init iters (fun i -> (g * 1000) + i + 1)) in
        check (Alcotest.list Alcotest.int) "every payload delivered once"
          (List.init ranks (fun g -> sum ((g + ranks - 1) mod ranks)))
          totals;
        let slow, _, _ = run_ring ~latency:(Time.ns 1000) ~ranks ~iters ~seed:1 in
        let fast, _, _ = out in
        check_bool "latency only delays" true (fast < slow));
    Alcotest.test_case "a same-instant delivery runs after its send and is counted" `Quick
      (fun () ->
        (* A zero-latency halo: the sender schedules the delivery at [now],
           and the delivery's [Flag.add] wakes the blocked receiver. *)
        let eng = Engine.create () in
        let f = Sync.Flag.create eng 0 in
        let log = ref [] in
        let note what = log := (what, Time.to_ns (Engine.now eng)) :: !log in
        let (_ : Engine.process) =
          proc eng "receiver" (fun () -> wait_ge f 1 (fun () -> note "woke"))
        in
        let (_ : Engine.process) =
          proc eng "sender" (fun () ->
              Engine.after eng (Time.ns 5) (fun () ->
                  Engine.schedule_at eng (Engine.now eng) (fun () ->
                      note "delivered";
                      Sync.Flag.add f 1);
                  note "sent"))
        in
        Engine.run eng;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "send, delivery, wake at one instant"
          [ ("sent", 5); ("delivered", 5); ("woke", 5) ]
          (List.rev !log);
        (* Two starts, the sender's delay, the delivery and the wake. *)
        check_int "every event counted" 5 (Engine.events_executed eng));
    Alcotest.test_case "finished processes leave the registry" `Quick (fun () ->
        let eng = Engine.create () in
        for i = 1 to 50 do
          let (_ : Engine.process) =
            proc eng (Printf.sprintf "p%d" i) (fun () -> Engine.after eng (Time.ns i) ignore)
          in
          ()
        done;
        Engine.run eng;
        check_int "registry drained" 0 (Engine.registered_processes eng);
        check (Alcotest.list Alcotest.string) "nothing blocked" []
          (Engine.stall_report eng ~trigger:"probe").Engine.stall_blocked);
    Alcotest.test_case "blocked daemons stay registered, finished ones do not" `Quick
      (fun () ->
        let eng = Engine.create () in
        let f = Sync.Flag.create ~name:"never" eng 0 in
        let (_ : Engine.process) = proc eng "d" ~daemon:true (fun () -> wait_ge f 1 ignore) in
        let (_ : Engine.process) = proc eng "p" (fun () -> ()) in
        Engine.run eng;
        check_int "daemon still live" 1 (Engine.registered_processes eng));
  ]

(* --- No speculation ---------------------------------------------------------- *)

(* What the removed optimistic driver had to restore by rollback, the one
   queue guarantees by construction: the clock every event sees never goes
   backward, and each event runs exactly once. *)
let optimistic_tests =
  [
    Alcotest.test_case "no state providers means no speculation" `Quick (fun () ->
        let eng = Engine.create () in
        let hits = ref 0 in
        Engine.schedule_at eng (Time.ns 10) (fun () -> incr hits);
        Engine.schedule_at eng (Time.ns 20) (fun () -> incr hits);
        Engine.run eng;
        check_int "both events ran" 2 !hits;
        check_int "each exactly once" 2 (Engine.events_executed eng));
    (* Every event is a callback that records the clock it runs at and may
       schedule one child [d mod 7] later (zero included), so the recorded
       clocks are the engine's whole history. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"gvt is monotone non-decreasing and bounded by the final clock" ~count:100
         QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 50) (int_bound 3)))
         (fun roots ->
           let eng = Engine.create () in
           let seen = ref [] in
           let rec cb d k () =
             seen := Engine.now eng :: !seen;
             if k > 0 then
               Engine.schedule_at eng (Time.add (Engine.now eng) (Time.ns (d mod 7))) (cb d (k - 1))
           in
           List.iter (fun (d, k) -> Engine.schedule_at eng (Time.ns d) (cb d k)) roots;
           Engine.run eng;
           let seen = List.rev !seen in
           let rec monotone = function
             | a :: (b :: _ as rest) -> Time.compare a b <= 0 && monotone rest
             | _ -> true
           in
           let final = Engine.now eng in
           monotone seen
           && List.for_all (fun g -> Time.compare g final <= 0) seen
           && List.length seen = Engine.events_executed eng
           && (seen = [] || Time.equal final (List.nth seen (List.length seen - 1)))));
  ]

(* --- Deferred diagnostics ----------------------------------------------- *)

let deadlock_lines f =
  match f () with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock lines -> lines

(* Names and wait reasons are rendered only when a report reads them; the
   text must be what the eager rendering printed, with every value taken
   when the process blocked. *)
let diagnostics_tests =
  [
    Alcotest.test_case "a flag waiter reports the value it blocked at" `Quick (fun () ->
        let eng = Engine.create () in
        let f = Sync.Flag.create ~name:"f" eng 0 in
        let (_ : Engine.process) = proc eng "waiter" ~group:"gpu0" (fun () -> wait_ge f 2 ignore) in
        let (_ : Engine.process) =
          proc eng "bumper" (fun () -> Engine.after eng (Time.ns 5) (fun () -> Sync.Flag.set f 1))
        in
        let lines = deadlock_lines (fun () -> Engine.run eng) in
        check (Alcotest.list Alcotest.string) "report"
          [ "waiter(#1) [gpu0]: flag f (value 0) (since 0ns)" ]
          lines;
        check_int "flag moved on" 1 (Sync.Flag.get f));
    Alcotest.test_case "barrier and mailbox reasons" `Quick (fun () ->
        let eng = Engine.create () in
        let b = Sync.Barrier.create ~name:"b" eng 3 in
        let m : int Sync.Mailbox.t = Sync.Mailbox.create ~name:"m" eng () in
        let spawn name body = ignore (proc eng name body : Engine.process) in
        spawn "b1" (fun () -> Sync.Barrier.wait_k b ignore);
        spawn "b2" (fun () -> Sync.Barrier.wait_k b ignore);
        spawn "mb" (fun () -> recv m (fun (_ : int) -> ()));
        check (Alcotest.list Alcotest.string) "report"
          [
            "b1(#1): barrier b (gen 0, 1/3) (since 0ns)";
            "b2(#2): barrier b (gen 0, 2/3) (since 0ns)";
            "mb(#3): mailbox m (since 0ns)";
          ]
          (deadlock_lines (fun () -> Engine.run eng)));
    Alcotest.test_case "a deferred process name renders on demand" `Quick (fun () ->
        let eng = Engine.create () in
        let rendered = ref 0 in
        let f = Sync.Flag.create ~name:"never" eng 0 in
        let p =
          Engine.spawn_callbacks eng
            ~name_of:(fun () ->
              incr rendered;
              Printf.sprintf "lazy.pe%d.%d" 3 7)
            (fun () -> wait_ge f 1 ignore)
        in
        let lines = deadlock_lines (fun () -> Engine.run eng) in
        check (Alcotest.list Alcotest.string) "report"
          [ "lazy.pe3.7(#1): flag never (value 0) (since 0ns)" ]
          lines;
        check_int "rendered once, for the report" 1 !rendered;
        check Alcotest.string "process_name" "lazy.pe3.7" (Engine.process_name p));
  ]

(* --- Fiberless processes ----------------------------------------------------- *)

let callback_tests =
  [
    Alcotest.test_case "a callback process steps when after says and shares the pid counter"
      `Quick (fun () ->
        let eng = Engine.create () in
        let log = ref [] in
        let note what = log := (what, Time.to_ns (Engine.now eng)) :: !log in
        let a = Engine.spawn eng ~name:"a" (fun () -> note "a") in
        let b =
          Engine.spawn_callbacks eng ~name_of:(fun () -> "b") (fun () ->
              note "b0";
              Engine.after eng (Time.ns 5) (fun () ->
                  note "b1";
                  Engine.after eng (Time.ns 3) (fun () -> note "b2")))
        in
        let c = Engine.spawn eng ~name:"c" (fun () -> note "c") in
        check_bool "b not done before the run" false (Engine.process_done b);
        Engine.run eng;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "steps in (time, spawn) order"
          [ ("a", 0); ("b0", 0); ("c", 0); ("b1", 5); ("b2", 8) ]
          (List.rev !log);
        check_int "one event per spawn and per after" 5 (Engine.events_executed eng);
        check_bool "b finished" true (Engine.process_done b);
        check_int "registry drained" 0 (Engine.registered_processes eng);
        check (Alcotest.list Alcotest.string) "pids in spawn order" [ "a"; "b"; "c" ]
          (List.map Engine.process_name [ a; b; c ]));
    Alcotest.test_case "after outside a callback step is rejected" `Quick (fun () ->
        let eng = Engine.create () in
        let rejected =
          Invalid_argument "Engine.after: not called from a step of a spawn_callbacks process"
        in
        Alcotest.check_raises "no process" rejected (fun () -> Engine.after eng Time.zero ignore);
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"fiber" (fun () ->
              Alcotest.check_raises "from a fiber" rejected (fun () ->
                  Engine.after eng Time.zero ignore))
        in
        let (_ : Engine.process) =
          Engine.spawn_callbacks eng ~name_of:(fun () -> "twice") (fun () ->
              Engine.after eng (Time.ns 1) ignore;
              Alcotest.check_raises "a second after in one step" rejected (fun () ->
                  Engine.after eng Time.zero ignore))
        in
        Engine.run eng);
    Alcotest.test_case "a waiting callback process reads as a delay in reports" `Quick (fun () ->
        let eng = Engine.create () in
        let (_ : Engine.process) =
          Engine.spawn_callbacks eng
            ~name_of:(fun () -> "cb.lazy")
            (fun () -> Engine.after eng (Time.ns 100) ignore)
        in
        let (_ : Engine.process) =
          proc eng "probe" (fun () ->
              Engine.after eng (Time.ns 50) (fun () ->
                  raise (Engine.Stall (Engine.stall_report eng ~trigger:"probe"))))
        in
        match Engine.run eng with
        | () -> Alcotest.fail "expected the probe's stall"
        | exception Engine.Stall r ->
          check (Alcotest.list Alcotest.string) "blocked"
            [ "cb.lazy(#1): delay (since 0ns)" ]
            r.Engine.stall_blocked);
    Alcotest.test_case "an exception in a step finishes the process and leaves run" `Quick
      (fun () ->
        let eng = Engine.create () in
        let p = Engine.spawn_callbacks eng ~name_of:(fun () -> "boom") (fun () -> failwith "boom") in
        Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run eng);
        check_bool "finished" true (Engine.process_done p);
        check_int "registry drained" 0 (Engine.registered_processes eng));
    (* Every NVSHMEM delivery, MPI message, kernel role and host rank is a
       process start. Its record (14 fields) and its resume thunk make 20
       words; each step starts the next process, so the queue's FIFO lane
       never grows and one run's own cost is spread over every start. *)
    Alcotest.test_case "a process start and finish allocates at most 20.5 minor words" `Quick
      (fun () ->
        let eng = Engine.create () in
        let starts = 100_000 in
        let left = ref starts in
        let name_of () = "p" in
        let rec first () =
          if !left > 0 then begin
            decr left;
            ignore (Engine.spawn_callbacks eng ~name_of first : Engine.process)
          end
        in
        let w0 = Gc.minor_words () in
        first ();
        Engine.run eng;
        let words = (Gc.minor_words () -. w0) /. float_of_int starts in
        check_int "every start ran" starts (Engine.steps_run eng);
        if words > 20.5 then
          Alcotest.failf "a process start and finish allocated %.2f minor words, bound 20.5" words);
  ]

(* --- Program: the step-program interpreter -------------------------------- *)

module Program = E.Program

(* A structured step program. [P_loop] and [P_guard] lay out through
   {!Program.loop} and {!Program.guard}, [P_branch] with a forward jump, and
   every instruction kind appears: a [Do], a [Wait] that goes on at once or
   waits, an [After] and a [Compute] whose costs read the state. *)
type pnode =
  | P_do
  | P_wait_now
  | P_wait of int
  | P_after of int
  | P_compute of int
  | P_guard of pnode list
  | P_loop of int * pnode list
  | P_branch of pnode list * pnode list

let gen_pnodes =
  QCheck.Gen.(
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (2, return P_do);
                 (1, return P_wait_now);
                 (1, map (fun d -> P_wait d) (int_bound 9));
                 (2, map (fun d -> P_after d) (int_bound 9));
                 (2, map (fun d -> P_compute d) (int_bound 9));
               ]
           in
           let block = list_size (int_bound 3) (self (n / 2)) in
           if n <= 1 then map (fun x -> [ x ]) leaf
           else
             list_size (1 -- 3)
               (frequency
                  [
                    (4, leaf);
                    (1, map (fun b -> P_guard (List.concat b)) block);
                    (1, map2 (fun k b -> P_loop (k, List.concat b)) (int_bound 3) block);
                    (1, map2 (fun a b -> P_branch (List.concat a, List.concat b)) block block);
                  ])))

let rec pp_pnode = function
  | P_do -> "do"
  | P_wait_now -> "wait_now"
  | P_wait d -> Printf.sprintf "wait %d" d
  | P_after d -> Printf.sprintf "after %d" d
  | P_compute d -> Printf.sprintf "compute %d" d
  | P_guard b -> Printf.sprintf "guard [%s]" (pp_pnodes b)
  | P_loop (k, b) -> Printf.sprintf "loop %d [%s]" k (pp_pnodes b)
  | P_branch (a, b) -> Printf.sprintf "branch [%s] [%s]" (pp_pnodes a) (pp_pnodes b)

and pp_pnodes l = String.concat "; " (List.map pp_pnode l)

(* [code] lays [nodes] out for process [pid]. The state's slot 0 counts the
   [Do]s and compute bodies run so far, and a loop at depth [d] counts in
   slot [d + 1]; guards and costs read them. With [typed] the timed waits
   are [After] and [Compute] and the layout goes through {!Program.loop}
   and {!Program.guard}; without, every typed instruction is written in its
   closure form, and the jumps by hand — the reference. *)
let code eng ~typed ~pid notes nodes =
  let st = Array.make 32 0 in
  let note what =
    st.(0) <- st.(0) + 1;
    notes := (pid, what, Time.to_ns (Engine.now eng)) :: !notes
  in
  let cost d s = Time.ns (d + (s.(0) mod 3)) in
  let lane = lazy (Printf.sprintf "p%d" pid) in
  let rec layout depth nodes = List.concat_map (node depth) nodes
  and node depth = function
    | P_do -> [ Program.Do (fun () -> note "do") ]
    | P_wait_now -> [ Program.Wait (fun k -> k ()) ]
    | P_wait d -> [ Program.Wait (fun k -> Engine.after eng (Time.ns d) k) ]
    | P_after d when typed -> [ Program.After (cost d) ]
    | P_after d -> [ Program.Wait (fun k -> Engine.after eng (cost d st) k) ]
    | P_compute d when typed ->
      [ Program.Compute { cost = cost d; body = (fun () -> note "body"); lane; label = "c" } ]
    | P_compute d ->
      let t0 = ref Time.zero in
      [
        Program.Wait
          (fun k ->
            t0 := Engine.now eng;
            Engine.after eng (cost d st) k);
        Program.Do
          (fun () ->
            note "body";
            Engine.log_compute eng ~since:!t0 ~lane ~label:"c");
      ]
    | P_guard b ->
      let c s = s.(0) mod 2 = 0 and body = layout depth b in
      if typed then Program.guard c body else Program.Skip_unless (c, List.length body) :: body
    | P_loop (k, b) ->
      let i = depth + 1 in
      let init () = st.(i) <- 0 and continue s = s.(i) < k and update () = st.(i) <- st.(i) + 1 in
      let body = layout (depth + 1) b in
      if typed then Program.loop ~init ~continue ~update body
      else
        let n = List.length body in
        (Program.Do init :: Program.Skip_unless (continue, n + 2) :: body)
        @ [ Program.Do update; Program.Jump (-(n + 2)) ]
    | P_branch (a, b) ->
      let a = layout depth a and b = layout depth b in
      (Program.Skip_unless ((fun s -> s.(0) mod 3 <> 0), List.length a + 1) :: a)
      @ (Program.Jump (List.length b + 1) :: b)
  in
  (Array.of_list (layout 0 nodes), st)

(* Run each program as its own process of one traced engine; what the run
   shows: the clock, the event count, the spans in recording order, the
   busy log's compute total and every note. *)
let run_programs ~typed programs =
  let tr = Trace.create () in
  let eng = Engine.create ~trace:tr () in
  let notes = ref [] in
  List.iteri
    (fun pid nodes ->
      let code, st = code eng ~typed ~pid notes nodes in
      ignore
        (proc eng (Printf.sprintf "p%d" pid) (fun () ->
             Program.run eng code st (fun () -> notes := (pid, "end", -1) :: !notes))
          : Engine.process))
    programs;
  Engine.run eng;
  ( Time.to_ns (Engine.now eng),
    Engine.events_executed eng,
    Trace.spans tr,
    Time.to_ns (E.Intervals.Log.compute_total (Engine.busy eng)),
    List.rev !notes )

let program_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"typed instructions run as their closure forms" ~count:300
         (QCheck.make
            ~print:(fun ps -> String.concat " | " (List.map pp_pnodes ps))
            QCheck.Gen.(list_size (1 -- 3) gen_pnodes))
         (fun programs -> run_programs ~typed:true programs = run_programs ~typed:false programs));
  ]

(* The minor words [iterations] rounds of an [After] and a [Compute]
   allocate. *)
let timed_loop_words iterations =
  let eng = Engine.create () in
  let it = ref 0 in
  let cost _ = Time.ns 7 in
  let body () = ignore (!it : int) in
  let code =
    Array.of_list
      (Program.loop
         ~init:(fun () -> it := 0)
         ~continue:(fun it -> !it < iterations)
         ~update:(fun () -> incr it)
         [ Program.After cost; Program.Compute { cost; body; lane = lazy "lane"; label = "c" } ])
  in
  ignore (proc eng "p" (fun () -> Program.run eng code it ignore) : Engine.process);
  let w0 = Gc.minor_words () in
  Engine.run eng;
  check_int "clock" (14 * iterations) (Time.to_ns (Engine.now eng));
  Gc.minor_words () -. w0

let program_tests =
  [
    Alcotest.test_case "an After of zero cost still waits for its event" `Quick (fun () ->
        let eng = Engine.create () in
        let code = [| Program.After (fun () -> Time.zero); Program.After (fun () -> Time.zero) |] in
        ignore (proc eng "p" (fun () -> Program.run eng code () ignore) : Engine.process);
        Engine.run eng;
        check_int "two resumes after the start" 3 (Engine.events_executed eng));
    (* The same loop in closure form ([Wait]s around [Engine.after], and a
       [Do] that logs) allocated 0.000 minor words per iteration before
       these instructions were typed, in the default and the dev profile.
       The one-off costs cancel in the difference of two run lengths. *)
    Alcotest.test_case "a loop of After and Compute allocates no minor words per iteration" `Quick
      (fun () ->
        let per_iteration = (timed_loop_words 101_000 -. timed_loop_words 1_000) /. 100_000. in
        if per_iteration > 0.01 then
          Alcotest.failf "the loop allocated %.3f minor words per iteration, bound 0.01"
            per_iteration);
  ]

(* --- Handover: a fiber's blocking work as steps ------------------------------- *)

(* A chain of two waits written as steps: a delay, then a flag wait. *)
let two_waits eng flag k =
  Engine.after eng (Time.ns 10) (fun () ->
      Sync.Flag.wait_until_k flag (fun v -> v > 0) (fun () -> k 42))

let handover_tests =
  [
    Alcotest.test_case "a chain handed over keeps the fiber's events" `Quick (fun () ->
        (* Two waits as a chain handed over, then a delay handed over: the
           log and the 6 events the same waits gave when a fiber could
           block by itself. Every one of them is a step, the fiber's start
           included. *)
        let run () =
          let eng = Engine.create () in
          let flag = Sync.Flag.create ~name:"f" eng 0 in
          let log = ref [] in
          let note what = log := (what, Time.to_ns (Engine.now eng)) :: !log in
          let (_ : Engine.process) =
            Engine.spawn eng ~name:"worker" (fun () ->
                note "start";
                let v = Engine.handover eng (two_waits eng flag) in
                note (Printf.sprintf "got %d" v);
                Engine.handover eng (fun k -> Engine.after eng (Time.ns 5) k);
                note "end")
          in
          let (_ : Engine.process) =
            proc eng "setter" (fun () ->
                Engine.after eng (Time.ns 25) (fun () -> Sync.Flag.set flag 1))
          in
          Engine.run eng;
          ( List.rev !log,
            Engine.events_executed eng,
            Engine.steps_run eng,
            Engine.registered_processes eng )
        in
        let log, events, steps_run, left = run () in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "same log" [ ("start", 0); ("got 42", 25); ("end", 30) ] log;
        check_int "same events" 6 events;
        check_int "every event a step" 6 steps_run;
        check_int "drained" 0 left);
    Alcotest.test_case "a chain that ends without waiting returns at once" `Quick (fun () ->
        let eng = Engine.create () in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"main" (fun () ->
              let flag = Sync.Flag.create eng 3 in
              let v =
                Engine.handover eng (fun k -> Sync.Flag.wait_ge_k flag 2 (fun () -> k "ready"))
              in
              check Alcotest.string "value" "ready" v;
              check_int "no time passed" 0 (Time.to_ns (Engine.now eng)))
        in
        Engine.run eng;
        check_int "one event: the start" 1 (Engine.events_executed eng);
        check_int "one step: the start" 1 (Engine.steps_run eng));
    Alcotest.test_case "every event is a step or a schedule_at callback" `Quick (fun () ->
        (* A fiber whose first chain ends at once and whose second blocks
           twice, a step process, and two callbacks, the second of which
           wakes the fiber. *)
        let eng = Engine.create () in
        let flag = Sync.Flag.create ~name:"f" eng 1 in
        let callbacks = ref 0 in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"fiber" (fun () ->
              let v = Engine.handover eng (fun k -> Sync.Flag.wait_ge_k flag 1 (fun () -> k 1)) in
              let w =
                Engine.handover eng (fun k ->
                    Engine.after eng (Time.ns 4) (fun () ->
                        Sync.Flag.wait_ge_k flag 2 (fun () -> k (v + 1))))
              in
              check_int "the blocking chain's value" 2 w;
              check_int "woken by the second callback" 9 (Time.to_ns (Engine.now eng)))
        in
        let (_ : Engine.process) =
          proc eng "steps" (fun () ->
              Engine.schedule_at eng (Time.ns 2) (fun () -> incr callbacks);
              Engine.after eng (Time.ns 6) (fun () ->
                  Engine.schedule_at eng (Time.ns 9) (fun () ->
                      incr callbacks;
                      Sync.Flag.set flag 2)))
        in
        Engine.run eng;
        check_int "callbacks" 2 !callbacks;
        check_int "steps: two starts, two delays and the wake" 5 (Engine.steps_run eng);
        check_int "every event counted once" (Engine.events_executed eng)
          (Engine.steps_run eng + !callbacks);
        check_int "drained" 0 (Engine.registered_processes eng));
    Alcotest.test_case "a blocked step reads as the fiber wait it stands for" `Quick (fun () ->
        let eng = Engine.create () in
        let flag = Sync.Flag.create ~name:"never" eng 0 in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"fiber" (fun () ->
              Engine.handover eng (fun k ->
                  Sync.Flag.wait_until_k ~waits_on:"gpu1" flag (fun v -> v > 0) k))
        in
        let (_ : Engine.process) =
          proc eng "steps" ~group:"gpu1" (fun () ->
              Engine.after eng (Time.ns 7) (fun () ->
                  Sync.Flag.wait_until_k ~waits_on:"gpu0" flag (fun v -> v > 0) ignore))
        in
        check (Alcotest.list Alcotest.string) "report"
          [
            "fiber(#1): flag never (value 0) (since 0ns) <- waits on gpu1";
            "steps(#2) [gpu1]: flag never (value 0) (since 7ns) <- waits on gpu0";
          ]
          (deadlock_lines (fun () -> Engine.run eng)));
    Alcotest.test_case "a raise in a handed-over step finishes the process once" `Quick (fun () ->
        let eng = Engine.create () in
        let flag = Sync.Flag.create eng 0 in
        let p =
          Engine.spawn eng ~name:"boom" (fun () ->
              Engine.handover eng (fun _k ->
                  Engine.after eng (Time.ns 3) (fun () -> failwith "step")))
        in
        let (_ : Engine.process) = proc eng "waiter" (fun () -> wait_ge flag 1 ignore) in
        Alcotest.check_raises "escapes run" (Failure "step") (fun () -> Engine.run eng);
        check_bool "finished" true (Engine.process_done p);
        check_int "only the waiter is left" 1 (Engine.registered_processes eng);
        (* The raiser is not counted live, so releasing the waiter drains
           the engine without a false Deadlock. *)
        let (_ : Engine.process) = proc eng "setter" (fun () -> Sync.Flag.set flag 1) in
        Engine.run eng;
        check_int "drained" 0 (Engine.registered_processes eng));
    Alcotest.test_case "a raise in the fiber after a step continued it finishes it once" `Quick
      (fun () ->
        let eng = Engine.create () in
        let flag = Sync.Flag.create eng 0 in
        let p =
          Engine.spawn eng ~name:"boom" (fun () ->
              Engine.handover eng (fun k -> Engine.after eng (Time.ns 3) k);
              failwith "fiber")
        in
        let (_ : Engine.process) = proc eng "waiter" (fun () -> wait_ge flag 1 ignore) in
        Alcotest.check_raises "escapes run" (Failure "fiber") (fun () -> Engine.run eng);
        check_bool "finished" true (Engine.process_done p);
        check_int "only the waiter is left" 1 (Engine.registered_processes eng);
        (* Counted once: the waiter alone still deadlocks, and releasing it
           drains the engine. *)
        check (Alcotest.list Alcotest.string) "the waiter is still live"
          [ "waiter(#2): flag flag (value 0) (since 0ns)" ]
          (deadlock_lines (fun () -> Engine.run eng));
        let (_ : Engine.process) = proc eng "setter" (fun () -> Sync.Flag.set flag 1) in
        Engine.run eng;
        check_int "drained" 0 (Engine.registered_processes eng));
    Alcotest.test_case "handover and step waits are refused where they cannot work" `Quick
      (fun () ->
        let eng = Engine.create () in
        let not_fiber = Invalid_argument "Engine.handover: not called from a fiber process" in
        Alcotest.check_raises "outside a process" not_fiber (fun () ->
            Engine.handover eng (fun k -> k ()));
        Alcotest.check_raises "await outside a step"
          (Invalid_argument "Engine.await: not called from a step") (fun () ->
            ignore (Engine.await eng ~reason:(fun () -> "x") ignore : unit -> unit));
        let (_ : Engine.process) =
          Engine.spawn_callbacks eng ~name_of:(fun () -> "cb") (fun () ->
              Alcotest.check_raises "from a step" not_fiber (fun () ->
                  Engine.handover eng (fun k -> k ())))
        in
        let (_ : Engine.process) =
          Engine.spawn eng ~name:"fiber" (fun () ->
              Alcotest.check_raises "a chain that neither waits nor ends"
                (Invalid_argument "Engine.handover: the chain neither waited nor ended") (fun () ->
                  Engine.handover eng (fun _k -> ()));
              (* The fiber is still a fiber afterwards. *)
              Engine.handover eng (fun k -> Engine.after eng (Time.ns 2) k))
        in
        Engine.run eng;
        check_int "drained" 0 (Engine.registered_processes eng));
  ]

let () =
  Alcotest.run "engine"
    [
      ("time", time_tests @ time_props);
      ("heap", heap_tests @ heap_props);
      ("rng", rng_tests @ rng_props);
      ("intervals", interval_tests @ interval_props);
      ("trace", trace_tests);
      ("engine", engine_tests);
      ("sync", sync_tests @ sync_props);
      ("queue", queue_tests @ queue_props);
      ("callbacks", callback_tests);
      ("program", program_tests @ program_props);
      ("handover", handover_tests);
      ("partitions", partition_tests);
      ("optimistic", optimistic_tests);
      ("diagnostic", diagnostics_tests);
    ]
