(* Self-tests of the benchmark's input generation (no simulation):

   - the same seed gives byte-identical inputs;
   - different seeds give the same mix proportions and warm-up shapes;
   - every generated scenario passes Scenario.validate;
   - every input a seed can draw has a recorded expected output. *)

open Perfbench
module Sc = Cpufree_core.Scenario

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let seeds = [ 0; 1; 2; 7; 42; 1234; 987654 ]

let render_ops ops = String.concat "\n" (Array.to_list (Array.map Gen.describe ops))

let render_serve (s : Gen.serve) =
  String.concat "\n" (Array.to_list (Array.map (fun (c, l) -> Gen.class_name c ^ " " ^ l) s.Gen.pool))
  ^ String.concat "," (Array.to_list (Array.map string_of_int s.Gen.stream))

let parse l = match Sc.of_string l with Ok sc -> sc | Error e -> failwith (l ^ ": " ^ e)

(* What a seed must not change about an operation: its kind, program,
   machine and artifact/fault class. *)
let shape = function
  | Gen.Run l ->
    let sc = parse l in
    let what =
      match sc.Sc.workload with
      | Sc.Stencil { variant; dims; iters; _ } -> Printf.sprintf "stencil %s %c iters=%d" variant dims.[0] iters
      | Sc.Dace { app; arm; iters; _ } -> Printf.sprintf "dace %s %s iters=%d" app arm iters
    in
    Printf.sprintf "%s gpus=%d topo=%s trace=%b metrics=%b faulted=%b" what sc.Sc.gpus
      (Cpufree_machine.Topology.spec_to_string sc.Sc.topology)
      sc.Sc.trace sc.Sc.metrics (sc.Sc.faults <> None)
  | Gen.Jacobi2d_rect _ as op -> Gen.key op
  | Gen.Search { program; gpus; iters; _ } -> Printf.sprintf "search %s gpus=%d iters=%d" program gpus iters
  | Gen.Allreduce _ as op -> Gen.key op

let histogram shapes =
  let h = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace h s (1 + Option.value ~default:0 (Hashtbl.find_opt h s))) shapes;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let () =
  (* determinism *)
  List.iter
    (fun seed ->
      check (Printf.sprintf "paper seed %d repeatable" seed)
        (render_ops (Gen.paper ~seed) = render_ops (Gen.paper ~seed));
      check (Printf.sprintf "cluster seed %d repeatable" seed)
        (render_ops (Gen.cluster ~seed) = render_ops (Gen.cluster ~seed));
      check (Printf.sprintf "serve seed %d repeatable" seed)
        (render_serve (Gen.serve ~seed ~length:5000) = render_serve (Gen.serve ~seed ~length:5000)))
    seeds;
  check "seeds pick different inputs" (render_ops (Gen.paper ~seed:1) <> render_ops (Gen.paper ~seed:2));
  (* proportions *)
  let ops_shape round = histogram (Array.to_list (Array.map shape round)) in
  let serve_shape seed =
    let s = Gen.serve ~seed ~length:20_000 in
    let timed = Array.sub s.Gen.stream s.Gen.warmup 20_000 in
    let classes = histogram (Array.to_list (Array.map (fun i -> Gen.class_name (fst s.Gen.pool.(i))) timed)) in
    let entry (c, l) = Gen.class_name c ^ " " ^ shape (Gen.Run l) in
    let pool = histogram (Array.to_list (Array.map entry s.Gen.pool)) in
    let warmup = Array.to_list (Array.map (fun i -> entry s.Gen.pool.(i)) (Array.sub s.Gen.stream 0 s.Gen.warmup)) in
    check (Printf.sprintf "serve warm-up requests every pool entry once, seed %d" seed)
      (List.sort_uniq compare (Array.to_list (Array.sub s.Gen.stream 0 s.Gen.warmup))
       = List.init (Array.length s.Gen.pool) Fun.id);
    (classes, pool, warmup)
  in
  List.iter
    (fun seed ->
      check (Printf.sprintf "paper mix, seed %d" seed) (ops_shape (Gen.paper ~seed) = ops_shape (Gen.paper ~seed:1));
      check (Printf.sprintf "cluster mix, seed %d" seed)
        (ops_shape (Gen.cluster ~seed) = ops_shape (Gen.cluster ~seed:1));
      check (Printf.sprintf "serve mix, seed %d" seed) (serve_shape seed = serve_shape 1))
    seeds;
  let classes, _, _ = serve_shape 1 in
  check "serve shares: 16 plain, 1 artifact, 3 faulted per 20"
    (classes = [ ("artifacts", 1000); ("faulted", 3000); ("plain", 16_000) ]);
  (* pool larger than the daemon's cache, all distinct *)
  List.iter
    (fun seed ->
      let pool = (Gen.serve ~seed ~length:1).Gen.pool in
      let digests = Array.to_list (Array.map (fun (_, l) -> Sc.digest (parse l)) pool) in
      check (Printf.sprintf "serve pool larger than the cache, seed %d" seed)
        (Array.length pool > Gen.serve_cache_capacity);
      check (Printf.sprintf "serve pool distinct, seed %d" seed)
        (List.length (List.sort_uniq compare digests) = Array.length pool))
    seeds;
  (* validity *)
  List.iter
    (fun seed ->
      Array.iter
        (fun op ->
          check ("valid: " ^ Gen.key op) (Gen.validate_op op = Ok ());
          match op with
          | Gen.Run l -> check ("Scenario.validate: " ^ l) (Sc.validate (parse l) = Ok ())
          | _ -> ())
        (Array.append (Gen.paper ~seed) (Gen.cluster ~seed));
      Array.iter
        (fun (_, l) -> check ("Scenario.validate: " ^ l) (Sc.validate (parse l) = Ok ()))
        (Gen.serve ~seed ~length:1).Gen.pool)
    seeds;
  (* coverage of the recorded outputs *)
  let table = Check.load ~path:"expected.tsv" () in
  List.iter
    (fun seed ->
      Array.iter
        (fun op -> check ("recorded: " ^ Gen.key op) (Check.expected table (Gen.key op) <> None))
        (Array.append (Gen.paper ~seed) (Gen.cluster ~seed));
      Array.iter
        (fun (_, l) -> check ("recorded: " ^ l) (Check.expected table l <> None))
        (Gen.serve ~seed ~length:1).Gen.pool)
    (seeds @ List.init 50 (fun i -> 100_000 + i));
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
