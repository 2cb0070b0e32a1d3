(* Seeded inputs for the three workloads.

   Every workload is a fixed multiset of operation *shapes* (kind, topology,
   GPU count, artifact and fault class); the seed only picks the concrete
   members (domain sizes, fault plans, allreduce contributions) and the
   order. So two seeds load the same layers in the same proportions, and a
   run's host time does not depend on which seed it got. *)

module Sc = Cpufree_core.Scenario
module Topology = Cpufree_machine.Topology
module Problem = Cpufree_stencil.Problem

type op =
  | Run of string  (** a canonical {!Sc.to_string} line *)
  | Jacobi2d_rect of { arm : string; nx : int; ny : int; iters : int; gpus : int }
      (** the headline DaCe Jacobi 2D cell: its weak-scaled domain is not
          square, so no scenario line can name it *)
  | Search of { program : string; size : int; gpus : int; iters : int }
  | Allreduce of { algorithm : string; host : bool; topology : string; gpus : int; rotate : int }
      (** PE [p] contributes [((p + rotate) mod gpus) + 1]: the sum is
          always n(n+1)/2, whichever rotation the seed picked *)

(* The identity of an operation's simulated output: everything the seed
   can vary except what provably cannot move the result (the rotation). *)
let key = function
  | Run line -> line
  | Jacobi2d_rect { arm; nx; ny; iters; gpus } ->
    Printf.sprintf "jacobi2d-rect arm=%s nx=%d ny=%d iters=%d gpus=%d" arm nx ny iters gpus
  | Search { program; size; gpus; iters } ->
    Printf.sprintf "search program=%s size=%d gpus=%d iters=%d" program size gpus iters
  | Allreduce { algorithm; host; topology; gpus; rotate = _ } ->
    Printf.sprintf "allreduce algorithm=%s driver=%s topology=%s gpus=%d" algorithm
      (if host then "host" else "device")
      topology gpus

let describe = function
  | Allreduce { rotate; _ } as op -> Printf.sprintf "%s rotate=%d" (key op) rotate
  | op -> key op

(* --- seeded choice ------------------------------------------------------- *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]
let pick st l = List.nth l (Random.State.int st (List.length l))

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [k] distinct members of [l], in the order drawn. *)
let pick_distinct st k l =
  Array.to_list (Array.sub (shuffle st (Array.of_list l)) 0 k)

(* --- scenario lines ------------------------------------------------------ *)

let line sc =
  match Sc.validate sc with
  | Ok () -> Sc.to_string sc
  | Error e -> invalid_arg ("perfbench: generated an invalid scenario: " ^ e)

let weak_dims ~dim ~base ~gpus =
  match
    Problem.weak_scale
      (if dim = 2 then Problem.D2 { nx = base; ny = base }
       else Problem.D3 { nx = base; ny = base; nz = base })
      ~gpus
  with
  | Problem.D2 { nx; ny } -> Printf.sprintf "2d:%dx%d" nx ny
  | Problem.D3 { nx; ny; nz } -> Printf.sprintf "3d:%dx%dx%d" nx ny nz

let stencil ?(topology = Topology.Hgx) ?faults ?(fault_seed = 1) ?(artifacts = false) ~variant
    ~dims ~iters ~gpus () =
  line
    (Sc.make ~topology ~gpus ?faults ~fault_seed ~trace:artifacts ~metrics:artifacts
       (Sc.Stencil { variant; dims; iters; no_compute = false }))

let dace ?(artifacts = false) ~app ~arm ~size ~iters ~gpus () =
  line
    (Sc.make ~gpus ~trace:artifacts ~metrics:artifacts
       (Sc.Dace { app; arm; size; iters; specialize_tb = false }))

let variants =
  [ "baseline-copy"; "baseline-overlap"; "baseline-p2p"; "baseline-nvshmem"; "cpu-free";
    "cpu-free-perks" ]

let apps = [ "jacobi1d"; "jacobi2d"; "heat3d" ]
let arms = [ "baseline"; "cpu-free" ]

(* Per-GPU base edges: host time does not depend on the domain size (buffers
   are phantom), so the seed may pick any of them without moving cost. *)
let base2d = [ 256; 512; 1024; 2048; 4096; 8192 ]
let base3d = [ 64; 96; 128; 192; 256; 384 ]

let app_sizes = function
  | "jacobi1d" -> [ 1 lsl 20; 1 lsl 21; 1 lsl 22; 1 lsl 23 ]
  | "jacobi2d" -> [ 1024; 2048; 4096; 8192 ]
  | "heat3d" -> [ 128; 192; 256; 320 ]
  | "smoother" -> [ 1 lsl 18; 1 lsl 19; 1 lsl 20; 1 lsl 21 ]
  | app -> invalid_arg ("perfbench: unknown program " ^ app)

(* --- paper-figures -------------------------------------------------------- *)

let paper_iters = 50

(* The eight headline comparisons of the paper's abstract, as the twelve
   runs they need (bench/main.ml's fig6.1 / fig6.3 cells): 2D weak-scaled
   stencils at 256^2, 2048^2 and 8192^2 per GPU, DaCe Jacobi 1D at 2^23
   elements per GPU and Jacobi 2D at 2048^2 per GPU, all on 8 GPUs. *)
let headline_runs =
  let st variant base = Run (stencil ~variant ~dims:(weak_dims ~dim:2 ~base ~gpus:8) ~iters:50 ~gpus:8 ()) in
  let j1 arm = Run (dace ~app:"jacobi1d" ~arm ~size:((1 lsl 23) * 8) ~iters:50 ~gpus:8 ()) in
  let j2 arm = Jacobi2d_rect { arm; nx = 4096; ny = 8192; iters = 50; gpus = 8 } in
  [|
    st "baseline-nvshmem" 256; st "cpu-free" 256; st "baseline-copy" 256;
    st "baseline-nvshmem" 2048; st "cpu-free" 2048; st "baseline-overlap" 2048;
    st "baseline-nvshmem" 8192; st "cpu-free-perks" 8192;
    j1 "baseline"; j1 "cpu-free"; j2 "baseline"; j2 "cpu-free";
  |]

(* (label, paper %, baseline run, ours run, compare comm instead of total),
   indices into [headline_runs]. *)
let headline =
  [
    ("2D small, CPU-Free vs best baseline (NVSHMEM), 8 GPUs", 41.6, 0, 1, false);
    ("2D medium, CPU-Free vs best baseline (NVSHMEM), 8 GPUs", 48.2, 3, 4, false);
    ("2D small, CPU-Free vs Baseline Copy (fully CPU-controlled)", 96.2, 2, 1, false);
    ("2D medium, CPU-Free vs Baseline Overlap", 95.7, 5, 4, false);
    ("2D large, multi-GPU PERKS vs best baseline, 8 GPUs", 18.8, 6, 7, false);
    ("DaCe Jacobi 1D, CPU-Free vs MPI baseline (total), 8 GPUs", 44.5, 8, 9, false);
    ("DaCe Jacobi 1D, communication latency reduction, 8 GPUs", 26.8, 8, 9, true);
    ("DaCe Jacobi 2D, CPU-Free vs MPI baseline (total), 8 GPUs", 96.8, 10, 11, false);
  ]

let gpu_counts = [ 1; 2; 4; 8 ]

(* One round: 48 stencil cells (6 variants x 1/2/4/8 GPUs x 2D/3D), 18 DaCe
   cells (3 apps x 2 arms x 2/4/8 GPUs), 4 searches (3 apps + smoother on 8
   GPUs) and the 12 headline runs, in a seeded order; the headline runs are
   always present. *)
let paper ~seed =
  let st = rng ~seed ~salt:1 in
  let stencils =
    List.concat_map
      (fun variant ->
        List.concat_map
          (fun gpus ->
            List.map
              (fun dim ->
                let base = pick st (if dim = 2 then base2d else base3d) in
                Run (stencil ~variant ~dims:(weak_dims ~dim ~base ~gpus) ~iters:paper_iters ~gpus ()))
              [ 2; 3 ])
          gpu_counts)
      variants
  in
  let dace_cells =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun arm ->
            List.map
              (fun gpus ->
                Run (dace ~app ~arm ~size:(pick st (app_sizes app)) ~iters:paper_iters ~gpus ()))
              [ 2; 4; 8 ])
          arms)
      apps
  in
  let searches =
    List.map
      (fun program -> Search { program; size = pick st (app_sizes program); gpus = 8; iters = paper_iters })
      (apps @ [ "smoother" ])
  in
  shuffle st
    (Array.concat
       [ Array.of_list stencils; Array.of_list dace_cells; Array.of_list searches; headline_runs ])

(* --- cluster-allreduce ---------------------------------------------------- *)

let cluster_gpus = [ 64; 128; 256 ]
let fat_tree = "fat-tree:4:2:8"
let dragonfly = "dragonfly:4:4:2:8"
let dgx gpus = Printf.sprintf "dgx:%d" (gpus / 8)

(* One round: device- and host-driven tree and doubling on dgx (table
   routing), fat-tree and dragonfly (structural) at 64/128/256 GPUs, plus
   ring on the two structural fabrics — 48 cells. *)
let cluster ~seed =
  let st = rng ~seed ~salt:2 in
  let cells =
    List.concat_map
      (fun gpus ->
        List.concat_map
          (fun (topology, algorithms) ->
            List.concat_map
              (fun algorithm ->
                List.map
                  (fun host ->
                    Allreduce { algorithm; host; topology; gpus; rotate = Random.State.int st gpus })
                  [ false; true ])
              algorithms)
          [
            (dgx gpus, [ "tree"; "doubling" ]);
            (fat_tree, [ "tree"; "doubling"; "ring" ]);
            (dragonfly, [ "tree"; "doubling"; "ring" ]);
          ])
      cluster_gpus
  in
  shuffle st (Array.of_list cells)

(* --- serve-mixed ---------------------------------------------------------- *)

type request_class = Plain | Artifacts | Faulted

let class_name = function Plain -> "plain" | Artifacts -> "artifacts" | Faulted -> "faulted"

type serve = {
  pool : (request_class * string) array;  (** distinct scenario lines *)
  stream : int array;  (** indices into [pool], in request order: [warmup] untimed, then the timed part *)
  warmup : int;
}

let serve_iters = 20

(* Of every 20 requests, 16 are plain, 1 asks for trace + metrics artifacts
   and 3 carry a fault plan — fixed shares, whatever the seed. The shares
   are a chosen mix, not measured from any recorded traffic. *)
let block = [| Plain; Plain; Plain; Plain; Plain; Artifacts; Plain; Plain; Plain; Faulted;
               Plain; Plain; Plain; Plain; Plain; Plain; Plain; Faulted; Plain; Faulted |]

let serve_cache_capacity = 128

(* Fault plans drawn for the faulted class: fabric drop/delay noise and a
   straggler on HGX, and a permanent link failure on the two-node DGX, which
   invalidates the daemon's cached route rows mid-run. *)
let hgx_plans = [ "drop=0.01"; "drop=0.02;delay=0.1@2000"; "delay=0.2@1000"; "straggler=3x1.5;drop=0.01" ]

let dgx_links =
  [ "node0.nic-ib.spine"; "node1.nic-ib.spine"; "node0.nvswitch-node0.nic"; "node1.nvswitch-node1.nic" ]

let fault_spec s =
  match Cpufree_fault.Fault.of_string s with
  | Ok f -> f
  | Error e -> invalid_arg ("perfbench: bad fault plan: " ^ e)

(* Universe per pool slot, then the seed picks distinct members. *)
let serve_pool ~seed =
  let st = rng ~seed ~salt:3 in
  let plain_stencil =
    List.concat_map
      (fun variant ->
        List.concat_map
          (fun gpus ->
            List.concat_map
              (fun dim ->
                List.map
                  (fun base ->
                    (Plain, stencil ~variant ~dims:(weak_dims ~dim ~base ~gpus) ~iters:serve_iters ~gpus ()))
                  (pick_distinct st 3 (if dim = 2 then base2d else base3d)))
              [ 2; 3 ])
          [ 2; 4; 8 ])
      variants
  in
  let plain_dace =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun arm ->
            List.concat_map
              (fun gpus ->
                List.map
                  (fun size -> (Plain, dace ~app ~arm ~size ~iters:serve_iters ~gpus ()))
                  (pick_distinct st 2 (app_sizes app)))
              [ 2; 4 ])
          arms)
      apps
  in
  let artifact_stencil =
    List.concat_map
      (fun variant ->
        List.concat_map
          (fun gpus ->
            List.map
              (fun base ->
                ( Artifacts,
                  stencil ~artifacts:true ~variant ~dims:(weak_dims ~dim:2 ~base ~gpus)
                    ~iters:serve_iters ~gpus () ))
              (pick_distinct st 2 base2d))
          [ 2; 4 ])
      [ "baseline-copy"; "baseline-nvshmem"; "cpu-free" ]
  in
  let artifact_dace =
    List.concat_map
      (fun arm ->
        List.map
          (fun gpus ->
            ( Artifacts,
              dace ~artifacts:true ~app:"jacobi2d" ~arm ~size:(pick st (app_sizes "jacobi2d"))
                ~iters:serve_iters ~gpus () ))
          [ 4; 8 ])
      arms
  in
  let faulted_hgx =
    List.concat_map
      (fun variant ->
        List.map
          (fun plan ->
            ( Faulted,
              stencil ~faults:(fault_spec plan) ~fault_seed:(1 + Random.State.int st 4) ~variant
                ~dims:(weak_dims ~dim:2 ~base:(pick st base2d) ~gpus:8)
                ~iters:serve_iters ~gpus:8 () ))
          hgx_plans)
      [ "baseline-nvshmem"; "cpu-free" ]
  in
  let faulted_dgx =
    List.concat_map
      (fun variant ->
        List.map
          (fun link ->
            ( Faulted,
              stencil ~topology:(Topology.Dgx { nodes = 2 })
                ~faults:(fault_spec (Printf.sprintf "linkfail=%s@40" link))
                ~variant ~dims:(weak_dims ~dim:2 ~base:(pick st base2d) ~gpus:16)
                ~iters:serve_iters ~gpus:16 () ))
          dgx_links)
      [ "baseline-nvshmem"; "cpu-free" ]
  in
  Array.of_list
    (plain_stencil @ plain_dace @ artifact_stencil @ artifact_dace @ faulted_hgx @ faulted_dgx)

(* Zipf popularity over each class: a few entries are hot (hits), the tail
   is larger than the cache (misses and evictions). The exponent is YCSB's
   default zipfian constant (Cooper et al., "Benchmarking Cloud Serving
   Systems with YCSB", SoCC 2010), a published stand-in for serving
   traffic: no recorded request log of this daemon exists, so neither it
   nor the class shares above are measured from real use. Which shape holds
   which rank is fixed, not seeded, so a seed cannot move hot traffic onto
   costlier scenarios; the seed picks each slot's concrete sizes and plans
   (cost-neutral) and the phase of a golden-ratio sequence that walks the
   popularity distribution, so every seed requests each rank equally often,
   in a different order. *)
let zipf_exponent = 0.99

let zipf_weights n = Array.init n (fun i -> float_of_int (i + 1) ** -.zipf_exponent)

let zipf_rank n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cdf.(i) <- !acc)
    (zipf_weights n);
  fun u ->
    let x = u *. !acc in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < x then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

let golden = (sqrt 5.0 -. 1.0) /. 2.0

(* The stream opens with an untimed warm-up that requests every pool entry
   once, least popular first, so the daemon's cache starts the timed part
   holding the most popular entries. Every seed warms up on the same
   shapes, so set-up time does not depend on the seed. *)
let serve ~seed ~length =
  let pool = serve_pool ~seed in
  let st = rng ~seed ~salt:4 in
  let ranking = rng ~seed:0 ~salt:5 in
  let share cls =
    float_of_int (List.length (List.filter (( = ) cls) (Array.to_list block)))
    /. float_of_int (Array.length block)
  in
  let popularity = Array.make (Array.length pool) 0.0 in
  let sampler cls =
    let members =
      shuffle ranking
        (Array.of_list
           (List.filter (fun i -> fst pool.(i) = cls) (List.init (Array.length pool) Fun.id)))
    in
    let n = Array.length members in
    let weights = zipf_weights n in
    let total = Array.fold_left ( +. ) 0.0 weights in
    Array.iteri (fun r i -> popularity.(i) <- share cls *. weights.(r) /. total) members;
    let rank = zipf_rank n in
    let phase = Random.State.float st 1.0 and k = ref 0 in
    fun () ->
      incr k;
      members.(rank (Float.rem (phase +. (float_of_int !k *. golden)) 1.0))
  in
  let samplers = List.map (fun cls -> (cls, sampler cls)) [ Plain; Artifacts; Faulted ] in
  let warmup =
    List.stable_sort
      (fun a b -> compare popularity.(a) popularity.(b))
      (List.init (Array.length pool) Fun.id)
  in
  let timed = Array.init length (fun i -> (List.assoc block.(i mod Array.length block) samplers) ()) in
  { pool; stream = Array.append (Array.of_list warmup) timed; warmup = Array.length pool }

(* --- workloads ------------------------------------------------------------ *)

let workloads = [ "paper-figures"; "cluster-allreduce"; "serve-mixed" ]

(* Check every generated input the way the program would: scenario lines
   through the public parser (which validates), cluster cells through the
   topology and algorithm parsers. *)
let validate_op = function
  | Run l -> (
    match Sc.of_string l with
    | Error e -> Error (l ^ ": " ^ e)
    | Ok sc -> if Sc.to_string sc = l then Ok () else Error (l ^ ": not canonical"))
  | Jacobi2d_rect _ | Search _ -> Ok ()
  | Allreduce { algorithm; topology; gpus; _ } -> (
    match (Topology.spec_of_string topology, Cpufree_comm.Collective.algorithm_of_string algorithm) with
    | Ok spec, Ok _ -> Topology.validate spec ~gpus
    | Error e, _ | _, Error e -> Error e)
