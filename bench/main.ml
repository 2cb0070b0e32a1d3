(* Benchmark harness: regenerates every figure of the paper's evaluation on
   the simulated 8x A100 machine and prints the same series the paper plots.

   Every figure is one record of [registry] below: its CLI name, its smoke
   and full parameters, a [run] that prints the table and returns the JSON
   points, the typed fields every point must carry and the figure's FATAL
   gates. CLI dispatch, per-figure timing, schema checks and the JSON
   document are derived from the registry, so adding a figure means adding
   one record.

   Every figure reports simulated values only, so stdout and
   BENCH_results.json are byte-identical across runs and pool sizes. Host
   cost (events per second, route and build times, daemon latency) is
   measured by perfbench, with calibration.

   Figure sweeps are lists of independent scenarios (each owns its own
   engine) executed on the Parallel domain pool, so the harness scales with
   host cores while the simulated results stay bit-identical to a
   sequential run. Pool size: CPUFREE_JOBS env var, default the host core
   count. Wall-clock chatter (one line per figure) goes to stderr.

   Run: dune exec bench/main.exe              (paper figures)
        dune exec bench/main.exe -- quick     (paper figures, smaller sweeps)
        dune exec bench/main.exe -- json      (also write BENCH_results.json)
        dune exec bench/main.exe -- smoke     (every figure at smoke size)
        dune exec bench/main.exe -- NAME [smoke] [json]   (one figure)

   NAME is any registry name: fig2.1b fig3.1 fig5.1b fig2.2a fig2.2b fig6.1
   fig6.2 fig6.3a fig6.3b headline supplementary.norm ablations scaleout
   collective autotune chaos recovery. Named and smoke runs always write
   BENCH_results.json. Figure index: DESIGN.md and EXPERIMENTS.md. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module S = Cpufree_stencil
module D = Cpufree_dace
module Measure = Cpufree_core.Measure
module Parallel = Cpufree_core.Parallel
module J = Cpufree_core.Json
module Time = E.Time
module Sim_env = Cpufree_obs.Sim_env
module Topology = Cpufree_machine.Topology
module Fault = Cpufree_fault.Fault

let gpu_counts = [ 1; 2; 4; 8 ]
let iterations = 50

let us t = Time.to_us_float t
let ms t = Time.to_ms_float t

let wall () = Unix.gettimeofday ()

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

(* Every measured run is a job through [Measure.run]. *)
let run_job job = (Measure.run job).Measure.result

let run_traced job =
  let o = Measure.run ~traced:true job in
  (o.Measure.result, Option.get o.Measure.trace)

(* A job whose environment carries a fault plan always reports chaos. *)
let run_chaos job = Option.get (Measure.run job).Measure.chaos

let stencil_variants = S.Variants.all
let d2 n = S.Problem.D2 { nx = n; ny = n }
let d3 n = S.Problem.D3 { nx = n; ny = n; nz = n }

(* ---------------------------------------------------------------- *)
(* The registry record and its point schema                          *)
(* ---------------------------------------------------------------- *)

type ty = [ `Int | `Float | `String | `Bool ]

(* Where a figure runs when no name is given: in both the quick and the
   full paper set, only in the full set, or only when named (or in the
   all-figures smoke run). *)
type suite = Paper | Full_only | On_demand

type 'p spec = {
  name : string;  (** CLI name; records sharing a name run together *)
  figure : string;  (** series name in BENCH_results.json and test/golden *)
  suite : suite;
  smoke : 'p;
  full : 'p;
  run : 'p -> J.t list;  (** prints the figure, returns its points *)
  fields : (string * ty) list;  (** typed fields every point carries *)
  gates : (string * (J.t list -> bool)) list;  (** FATAL unless each holds *)
}

type fig = Fig : 'p spec -> fig

(* One JSON point per scenario: simulated times are integer nanoseconds so
   the series is exact, not a formatting artifact. *)
let point ?(extra = []) ~label ~gpus (r : Measure.result) =
  J.Obj
    ([
       ("label", J.String label);
       ("gpus", J.Int gpus);
       ("iterations", J.Int r.Measure.iterations);
       ("total_ns", J.Int (Time.to_ns r.Measure.total));
       ("per_iter_ns", J.Int (Time.to_ns r.Measure.per_iter));
       ("comm_ns", J.Int (Time.to_ns r.Measure.comm));
       ("overlap_pct", J.Float (r.Measure.overlap *. 100.0));
       ("bytes_moved", J.Int r.Measure.bytes_moved);
     ]
    @ extra)

let point_fields : (string * ty) list =
  [
    ("label", `String);
    ("gpus", `Int);
    ("iterations", `Int);
    ("total_ns", `Int);
    ("per_iter_ns", `Int);
    ("comm_ns", `Int);
    ("overlap_pct", `Float);
    ("bytes_moved", `Int);
  ]

(* Point accessors for gate predicates; a missing or non-numeric field
   reads as nan, which fails every comparison. *)
let field k p = match p with J.Obj kvs -> List.assoc_opt k kvs | _ -> None

let num k p =
  match field k p with Some (J.Int n) -> float_of_int n | Some (J.Float f) -> f | _ -> nan

let is k v p = field k p = Some v

(* A figure without smoke/full parameters. *)
let fixed ?name ?(suite = Paper) ?(fields = point_fields) figure run =
  Fig
    {
      name = Option.value name ~default:figure;
      figure;
      suite;
      smoke = ();
      full = ();
      run;
      fields;
      gates = [];
    }

(* ---------------------------------------------------------------- *)
(* Scenario-grid helpers: gpus × variant sweeps through the pool     *)
(* ---------------------------------------------------------------- *)

(* Cross product in row-major (gpus-major) order, matching the printed
   tables; the pool preserves this order in its result list. *)
let stencil_grid problem_of =
  let cells =
    List.concat_map
      (fun gpus -> List.map (fun kind -> (gpus, kind)) stencil_variants)
      gpu_counts
  in
  let scenarios =
    List.map (fun (gpus, kind) -> S.Harness.scenario_env kind (problem_of gpus) ~gpus) cells
  in
  List.combine cells (Parallel.map run_job scenarios)

(* Print a grid as one row per GPU count, one column per variant, and turn
   it into JSON points. [domain_of] adds the domain column of Fig 6.1. *)
let print_grid ?domain_of grid =
  (match domain_of with
  | None -> Printf.printf "%6s" "gpus"
  | Some _ -> Printf.printf "%6s %14s" "gpus" "domain");
  List.iter (fun k -> Printf.printf " %18s" (S.Variants.name k)) stencil_variants;
  print_newline ();
  List.iter
    (fun gpus ->
      Printf.printf "%6d" gpus;
      (match domain_of with
      | None -> ()
      | Some f -> Printf.printf " %14s" (S.Problem.dims_to_string (f gpus)));
      List.iter
        (fun ((_, _), r) -> Printf.printf " %18.2f" (us r.Measure.per_iter))
        (List.filter (fun ((g, _), _) -> g = gpus) grid);
      print_newline ())
    gpu_counts;
  List.map (fun ((gpus, kind), r) -> point ~label:(S.Variants.name kind) ~gpus r) grid

let grid_figure ?suite ?name figure ~title problem_of =
  fixed ?suite ?name figure (fun () ->
      let grid = stencil_grid problem_of in
      header title;
      print_grid grid)

(* A weak-scaling table: the sweep is lazy so the headline can reuse the
   Fig 6.1 results instead of running them a second time. *)
let weak_grid dims_base =
  ( dims_base,
    lazy
      (stencil_grid (fun gpus ->
           S.Problem.make (S.Problem.weak_scale dims_base ~gpus) ~iterations)) )

let weak_figure ?suite ~name figure ~title (dims_base, grid) =
  fixed ?suite ~name figure (fun () ->
      let grid = Lazy.force grid in
      header title;
      print_grid ~domain_of:(fun gpus -> S.Problem.weak_scale dims_base ~gpus) grid)

let small = weak_grid (d2 256)
let medium = weak_grid (d2 2048)
let large = weak_grid (d2 8192)

(* ---------------------------------------------------------------- *)
(* Fig 2.1b / 3.1 / 5.1b: timelines                                  *)
(* ---------------------------------------------------------------- *)

let print_filtered_timeline trace =
  let filtered = E.Trace.create () in
  List.iter
    (fun sp ->
      let keep =
        List.exists
          (fun p -> Astring.String.is_prefix ~affix:p sp.E.Trace.lane)
          [ "gpu0"; "gpu1"; "host" ]
      in
      if keep then
        E.Trace.add filtered ~lane:sp.E.Trace.lane ~label:sp.E.Trace.label ~kind:sp.E.Trace.kind
          ~t0:sp.E.Trace.t0 ~t1:sp.E.Trace.t1)
    (E.Trace.spans trace);
  print_string (E.Trace.render_ascii ~width:96 filtered)

let timeline figure ~title ~label run =
  fixed figure ~fields:(point_fields @ [ ("spans", `Int) ]) (fun () ->
      let r, trace = run () in
      header title;
      print_filtered_timeline trace;
      [
        point ~label ~gpus:r.Measure.gpus r
          ~extra:[ ("spans", J.Int (List.length (E.Trace.spans trace))) ];
      ])

let p2d_256 iters = S.Problem.make (d2 256) ~iterations:iters

(* ---------------------------------------------------------------- *)
(* Fig 2.2b: overlap ratio                                           *)
(* ---------------------------------------------------------------- *)

let fig2_2b () =
  let problem = S.Problem.make (S.Problem.weak_scale (d2 256) ~gpus:8) ~iterations in
  let results =
    Parallel.map run_job
      (List.map (fun kind -> S.Harness.scenario_env kind problem ~gpus:8) stencil_variants)
  in
  header
    "Fig 2.2b  Communication overlap ratio and total execution time (2D 256^2 per GPU, 8 \
     GPUs)";
  Printf.printf "%-22s %12s %14s %12s %12s %14s\n" "variant" "total(ms)" "comm-wall(ms)"
    "overlap(%)" "comm(%)" "non-compute(%)";
  List.map2
    (fun kind r ->
      let total = Time.to_sec_float r.Measure.total in
      let pct t = if total = 0.0 then 0.0 else t /. total *. 100.0 in
      let comm_frac = pct (Time.to_sec_float r.Measure.comm) in
      (* The paper's "communication takes 96% of execution" counts everything
         that is not computation: API calls, synchronization, transfers. *)
      let non_compute = pct (total -. Time.to_sec_float r.Measure.compute) in
      Printf.printf "%-22s %12.3f %14.3f %12.1f %12.1f %14.1f\n" (S.Variants.name kind)
        (ms r.Measure.total) (ms r.Measure.comm) (r.Measure.overlap *. 100.0) comm_frac
        non_compute;
      point ~label:(S.Variants.name kind) ~gpus:8 r
        ~extra:[ ("comm_frac_pct", J.Float comm_frac); ("non_compute_pct", J.Float non_compute) ])
    stencil_variants results

(* ---------------------------------------------------------------- *)
(* Fig 6.3: compiler-generated code                                  *)
(* ---------------------------------------------------------------- *)

let dace_arms = [ D.Pipeline.Baseline_mpi; D.Pipeline.Cpu_free ]

(* gpus × arm sweep through the pool, row-major like the tables; lazy so
   the headline reuses it. *)
let dace_grid app_of =
  lazy
    (let cells =
       List.concat_map (fun gpus -> List.map (fun arm -> (gpus, arm)) dace_arms) gpu_counts
     in
     List.combine cells
       (Parallel.map
          (fun (gpus, arm) -> run_job (D.Pipeline.scenario_env (app_of gpus) arm ~gpus))
          cells))

let dace_points grid =
  List.map (fun ((gpus, arm), r) -> point ~label:(D.Pipeline.arm_name arm) ~gpus r) grid

let dace1d =
  dace_grid (fun gpus ->
      D.Pipeline.Jacobi1d { D.Programs.n_global = (1 lsl 23) * gpus; tsteps = iterations })

let dims_6_3b gpus = S.Problem.weak_scale (d2 2048) ~gpus

let dace2d =
  dace_grid (fun gpus ->
      match dims_6_3b gpus with
      | S.Problem.D2 { nx; ny } ->
        D.Pipeline.Jacobi2d { D.Programs.nx_global = nx; ny_global = ny; tsteps = iterations }
      | _ -> assert false)

let fig6_3a () =
  let grid = Lazy.force dace1d in
  header "Fig 6.3a  DaCe Jacobi 1D weak scaling, 2^23 elems/GPU (total ms and comm-wall ms)";
  Printf.printf "%6s %16s %12s %12s %16s %12s %12s\n" "gpus" "" "total" "comm" "" "total" "comm";
  List.iter
    (fun gpus ->
      Printf.printf "%6d" gpus;
      List.iter
        (fun ((_, arm), r) ->
          Printf.printf " %16s %12.3f %12.3f" (D.Pipeline.arm_name arm) (ms r.Measure.total)
            (ms r.Measure.comm))
        (List.filter (fun ((g, _), _) -> g = gpus) grid);
      print_newline ())
    gpu_counts;
  dace_points grid

let fig6_3b () =
  let grid = Lazy.force dace2d in
  header "Fig 6.3b  DaCe Jacobi 2D weak scaling, 2048^2/GPU (total ms; strided columns)";
  Printf.printf "%6s %14s %16s %12s %16s %12s\n" "gpus" "domain" "" "total" "" "total";
  List.iter
    (fun gpus ->
      Printf.printf "%6d %14s" gpus (S.Problem.dims_to_string (dims_6_3b gpus));
      List.iter
        (fun ((_, arm), r) ->
          Printf.printf " %16s %12.3f" (D.Pipeline.arm_name arm) (ms r.Measure.total))
        (List.filter (fun ((g, _), _) -> g = gpus) grid);
      print_newline ())
    gpu_counts;
  (* Weak-scaling efficiency of the CPU-Free arm (paper: 81.2%). *)
  let total gpus = Time.to_sec_float (List.assoc (gpus, D.Pipeline.Cpu_free) grid).Measure.total in
  Printf.printf "CPU-Free weak scaling efficiency at 8 GPUs: %.1f%%\n"
    (total 1 /. total 8 *. 100.0);
  dace_points grid

(* ---------------------------------------------------------------- *)
(* Headline speedups                                                  *)
(* ---------------------------------------------------------------- *)

let headline () =
  header "Headline speedups: paper vs measured (speedup% = (Tb - To) / Tb * 100)";
  let at8 grid key : Measure.result = List.assoc (8, key) (Lazy.force grid) in
  let st (_, grid) kind = at8 grid kind in
  let sp b o = Measure.speedup_pct ~baseline:b ~ours:o in
  let line (label, paper, measured) =
    Printf.printf "  %-58s paper: %6.1f%%   measured: %6.1f%%\n" label paper measured;
    J.Obj
      [
        ("comparison", J.String label);
        ("paper_pct", J.Float paper);
        ("measured_pct", J.Float measured);
      ]
  in
  let open S.Variants in
  let b1 = at8 dace1d D.Pipeline.Baseline_mpi and c1 = at8 dace1d D.Pipeline.Cpu_free in
  let comm_sp =
    let b = Time.to_sec_float b1.Measure.comm and o = Time.to_sec_float c1.Measure.comm in
    (b -. o) /. b *. 100.0
  in
  List.map line
    [
      ( "2D small, CPU-Free vs best baseline (NVSHMEM), 8 GPUs",
        41.6,
        sp (st small Nvshmem) (st small Cpu_free) );
      ( "2D medium, CPU-Free vs best baseline (NVSHMEM), 8 GPUs",
        48.2,
        sp (st medium Nvshmem) (st medium Cpu_free) );
      ( "2D small, CPU-Free vs Baseline Copy (fully CPU-controlled)",
        96.2,
        sp (st small Copy) (st small Cpu_free) );
      ( "2D medium, CPU-Free vs Baseline Overlap",
        95.7,
        sp (st medium Overlap) (st medium Cpu_free) );
      ( "2D large, multi-GPU PERKS vs best baseline, 8 GPUs",
        18.8,
        sp (st large Nvshmem) (st large Perks) );
      ("DaCe Jacobi 1D, CPU-Free vs MPI baseline (total), 8 GPUs", 44.5, sp b1 c1);
      ("DaCe Jacobi 1D, communication latency reduction, 8 GPUs", 26.8, comm_sp);
      ( "DaCe Jacobi 2D, CPU-Free vs MPI baseline (total), 8 GPUs",
        96.8,
        sp (at8 dace2d D.Pipeline.Baseline_mpi) (at8 dace2d D.Pipeline.Cpu_free) );
    ]

(* ---------------------------------------------------------------- *)
(* Supplementary: convergence-checked iterations                     *)
(* ---------------------------------------------------------------- *)

let supplementary_norm () =
  let kinds = [ S.Variants.Copy; S.Variants.Nvshmem; S.Variants.Cpu_free ] in
  let dims = S.Problem.weak_scale (d2 2048) ~gpus:8 in
  let cells = List.concat_map (fun kind -> [ (kind, None); (kind, Some 1) ]) kinds in
  let results =
    Parallel.map run_job
      (List.map
         (fun (kind, norm) ->
           S.Harness.scenario_env kind
             (S.Problem.make ?norm_every:norm dims ~iterations:30)
             ~gpus:8)
         cells)
  in
  header
    "Supplementary  Residual check every iteration (NVIDIA-sample style): host-round-trip \
     allreduce vs device-side allreduce (2D medium, 8 GPUs, per-iter us)";
  Printf.printf "%-22s %14s %16s %12s\n" "variant" "plain" "with norm" "penalty";
  let grid = List.combine cells results in
  List.concat_map
    (fun kind ->
      let plain = List.assoc (kind, None) grid and normed = List.assoc (kind, Some 1) grid in
      Printf.printf "%-22s %14.2f %16.2f %11.2f%%\n" (S.Variants.name kind)
        (us plain.Measure.per_iter) (us normed.Measure.per_iter)
        ((Time.to_sec_float normed.Measure.per_iter /. Time.to_sec_float plain.Measure.per_iter
         -. 1.0)
        *. 100.0);
      [
        point ~label:(S.Variants.name kind) ~gpus:8 plain;
        point ~label:(S.Variants.name kind ^ "+norm") ~gpus:8 normed;
      ])
    kinds

(* ---------------------------------------------------------------- *)
(* Ablations: design choices called out in DESIGN.md                 *)
(* ---------------------------------------------------------------- *)

let ablation_app =
  D.Pipeline.Jacobi2d { D.Programs.nx_global = 4096; ny_global = 4096; tsteps = 20 }

let ablation_a () =
  let run_relax relax =
    let built = D.Pipeline.compile ~relax ablation_app D.Pipeline.Cpu_free ~gpus:8 in
    Measure.run_env
      ~label:(if relax then "relaxed (this work)" else "naive (upstream)")
      ~gpus:8 ~iterations:20 built.D.Exec.program
  in
  match Parallel.map run_relax [ true; false ] with
  | [ relaxed; naive ] ->
    header "Ablation A  Persistent-fusion barrier placement (§5.1): relaxed vs upstream-naive";
    Printf.printf "  %-24s per-iter %8.2f us\n" relaxed.Measure.label (us relaxed.Measure.per_iter);
    Printf.printf "  %-24s per-iter %8.2f us\n" naive.Measure.label (us naive.Measure.per_iter);
    Printf.printf "  relaxation speedup: %.1f%%\n"
      (Measure.speedup_pct ~baseline:naive ~ours:relaxed);
    [
      point ~label:relaxed.Measure.label ~gpus:8 relaxed;
      point ~label:naive.Measure.label ~gpus:8 naive;
    ]
  | _ -> assert false

let ablation_b () =
  let run_spec specialize_tb =
    let built = D.Pipeline.compile ~specialize_tb ablation_app D.Pipeline.Cpu_free ~gpus:8 in
    Measure.run_env
      ~label:(if specialize_tb then "TB-specialized" else "single-thread + grid sync")
      ~gpus:8 ~iterations:20 built.D.Exec.program
  in
  match Parallel.map run_spec [ false; true ] with
  | [ conservative; specialized ] ->
    header
      "Ablation B  In-kernel communication scheduling (§5.3.2/§5.4): single-thread vs      \
       thread-block-specialized (this work implements the paper's future work)";
    List.iter
      (fun (r : Measure.result) ->
        Printf.printf "  %-28s per-iter %8.2f us  overlap %5.1f%%\n" r.Measure.label
          (us r.Measure.per_iter) (r.Measure.overlap *. 100.0))
      [ conservative; specialized ];
    Printf.printf "  specialization speedup: %.1f%%\n"
      (Measure.speedup_pct ~baseline:conservative ~ours:specialized);
    [
      point ~label:conservative.Measure.label ~gpus:8 conservative;
      point ~label:specialized.Measure.label ~gpus:8 specialized;
    ]
  | _ -> assert false

let ablation_c () =
  let kinds = [ S.Variants.Cpu_free; S.Variants.Cpu_free_multi ] in
  let problem = S.Problem.make (S.Problem.weak_scale (d2 2048) ~gpus:8) ~iterations:50 in
  let results =
    Parallel.map run_job (List.map (fun kind -> S.Harness.scenario_env kind problem ~gpus:8) kinds)
  in
  header
    "Ablation C  One specialized kernel vs two co-resident kernels (§4 alternative design;  \
        paper: no significant difference)";
  List.map2
    (fun kind r ->
      Printf.printf "  %-22s per-iter %8.2f us\n" (S.Variants.name kind) (us r.Measure.per_iter);
      point ~label:(S.Variants.name kind) ~gpus:8 r)
    kinds results

let ablation_d () =
  let sizes = [ 1024; 2048; 4096; 8192; 16384 ] in
  let cells =
    List.concat_map (fun nx -> [ (nx, S.Variants.Perks); (nx, S.Variants.Cpu_free) ]) sizes
  in
  let results =
    Parallel.map run_job
      (List.map
         (fun (nx, kind) ->
           let dims = S.Problem.weak_scale (d2 nx) ~gpus:8 in
           S.Harness.scenario_env kind (S.Problem.make dims ~iterations:20) ~gpus:8)
         cells)
  in
  header
    "Ablation D  PERKS caching vs per-GPU domain size (2D, 8 GPUs): fitting domains are \
     cached almost entirely; over-capacity domains fall back toward plain traffic";
  Printf.printf "  %12s %12s %14s %14s\n" "domain/GPU" "cache-frac" "perks (us)" "cpu-free (us)";
  let grid = List.combine cells results in
  List.concat_map
    (fun nx ->
      let perks = List.assoc (nx, S.Variants.Perks) grid in
      let free = List.assoc (nx, S.Variants.Cpu_free) grid in
      let cache_frac = G.Kernel.perks_cache_fraction G.Arch.a100_hgx ~elems:(nx * nx) in
      Printf.printf "  %9dx%-3d %12.2f %14.2f %14.2f\n" nx nx cache_frac
        (us perks.Measure.per_iter) (us free.Measure.per_iter);
      [
        point
          ~label:(Printf.sprintf "perks/%d" nx)
          ~gpus:8 perks
          ~extra:[ ("cache_frac", J.Float cache_frac) ];
        point ~label:(Printf.sprintf "cpu-free/%d" nx) ~gpus:8 free;
      ])
    sizes

(* ---------------------------------------------------------------- *)
(* Fig S: inter- vs intra-node scale-out                             *)
(* ---------------------------------------------------------------- *)

(* The device-initiated arms, where fabric latency is the dominant term and
   the single-switch vs NIC+InfiniBand difference shows undiluted. *)
let scaleout_variants = [ S.Variants.Nvshmem; S.Variants.Cpu_free ]

(* Weak-scale the small 2D domain past one NVSwitch: the same GPU count on a
   single (idealized) switch vs split across DGX nodes at 8 GPUs/node. Halo
   pairs that land on different nodes pay the PCIe attach twice plus the IB
   hop and contend for the NIC, so the gap between the two series is the
   price of scale-out that Figure 6.1 (single-node by construction) cannot
   show. *)
let fig_scaleout (counts, iters) =
  let cells =
    List.concat_map
      (fun gpus ->
        let topologies =
          (Topology.Hgx, 1)
          :: (if gpus >= 16 then [ (Topology.Dgx { nodes = gpus / 8 }, gpus / 8) ] else [])
        in
        List.concat_map
          (fun (topology, nodes) ->
            List.map (fun kind -> (gpus, topology, nodes, kind)) scaleout_variants)
          topologies)
      counts
  in
  let scenarios =
    List.map
      (fun (gpus, topology, _nodes, kind) ->
        let dims = S.Problem.weak_scale (d2 256) ~gpus in
        S.Harness.scenario_env ~env:(Sim_env.make ~topology ()) kind
          (S.Problem.make dims ~iterations:iters) ~gpus)
      cells
  in
  let grid = List.combine cells (Parallel.map run_job scenarios) in
  header
    "Fig S  Scale-out: 2D Jacobi weak scaling, 256^2/GPU, single NVSwitch vs DGX cluster (8 \
     GPUs/node, InfiniBand spine; per-iter us)";
  Printf.printf "%6s %6s %10s" "gpus" "nodes" "topology";
  List.iter (fun k -> Printf.printf " %18s" (S.Variants.name k)) scaleout_variants;
  print_newline ();
  let row_keys = List.sort_uniq compare (List.map (fun (g, t, n, _) -> (g, t, n)) cells) in
  List.iter
    (fun (gpus, topology, nodes) ->
      Printf.printf "%6d %6d %10s" gpus nodes (Topology.spec_to_string topology);
      List.iter
        (fun (_, r) -> Printf.printf " %18.2f" (us r.Measure.per_iter))
        (List.filter (fun ((g, t, n, _), _) -> (g, t, n) = (gpus, topology, nodes)) grid);
      print_newline ())
    row_keys;
  List.map
    (fun ((gpus, topology, nodes, kind), r) ->
      point ~label:(S.Variants.name kind) ~gpus r
        ~extra:
          [ ("topology", J.String (Topology.spec_to_string topology)); ("nodes", J.Int nodes) ])
    grid

(* ---------------------------------------------------------------- *)
(* Fig C: chaos — fault intensity vs completion time / recovery       *)
(* ---------------------------------------------------------------- *)

(* One host-driven scheme, one discrete device-initiated scheme, and the
   persistent CPU-free scheme: the sweep shows how each degrades as the
   fabric gets lossier and one device lags. *)
let chaos_variants = [ S.Variants.Copy; S.Variants.Nvshmem; S.Variants.Cpu_free ]

let chaos_seed = 1234

(* Sweep {!Fault.preset} intensity over the three schemes on a fixed seed.
   Intensity 0 is a fault-free control run through the same chaos machinery
   (plan active, nothing fires), so the "recovery overhead" column reads
   directly as time relative to that row. Every cell is bit-identical across
   repeats. *)
let fig_chaos (intensities, iters, gpus) =
  let problem = S.Problem.make (d2 512) ~iterations:iters in
  let cells = List.concat_map (fun i -> List.map (fun k -> (i, k)) chaos_variants) intensities in
  let runs =
    Parallel.map
      (fun (intensity, kind) ->
        run_chaos
          (S.Harness.scenario_env
             ~env:(Sim_env.make ~faults:(Fault.preset ~intensity) ~fault_seed:chaos_seed ())
             kind problem ~gpus))
      cells
  in
  let grid = List.combine cells runs in
  header
    (Printf.sprintf
       "Fig C  Chaos: 2D Jacobi 512^2 on %d GPUs under injected faults (seed %d); total us \
        (ok|AB), deliveries resent"
       gpus chaos_seed);
  Printf.printf "%9s" "intensity";
  List.iter (fun k -> Printf.printf " %22s" (S.Variants.name k)) chaos_variants;
  print_newline ();
  List.iter
    (fun intensity ->
      Printf.printf "%9.2f" intensity;
      List.iter
        (fun ((i, _), c) ->
          if i = intensity then begin
            Printf.printf " %12.2f %s r=%-4d" (us c.Measure.base.Measure.total)
              (if c.Measure.completed then "ok" else "AB")
              c.Measure.resent
          end)
        grid;
      print_newline ())
    intensities;
  List.map
    (fun ((intensity, kind), c) ->
      let min_progress =
        Array.fold_left Stdlib.min c.Measure.base.Measure.iterations c.Measure.progress
      in
      point ~label:(S.Variants.name kind) ~gpus c.Measure.base
        ~extra:
          [
            ("intensity", J.Float intensity);
            ("fault_seed", J.Int chaos_seed);
            ("completed", J.Bool c.Measure.completed);
            ("min_progress", J.Int min_progress);
            ("dropped", J.Int c.Measure.dropped);
            ("delayed", J.Int c.Measure.delayed);
            ("resent", J.Int c.Measure.resent);
            ("retried", J.Int c.Measure.retried);
          ])
    grid

(* ---------------------------------------------------------------- *)
(* Fig R: fail-stop kills and checkpoint/restart recovery             *)
(* ---------------------------------------------------------------- *)

let recovery_seed = 77

let fatal tag fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "[%s] FATAL: %s\n%!" tag s;
      exit 1)
    fmt

(* Everything the self-healing layer decides about one run; bit-equality of
   this digest across repeats is the recovery FATAL gate. *)
let resilient_digest (r : S.Harness.resilient_run) =
  ( Time.to_ns r.S.Harness.r_total,
    Time.to_ns r.S.Harness.r_restart_cost,
    r.S.Harness.r_killed,
    r.S.Harness.r_survivors,
    r.S.Harness.r_checkpoint,
    r.S.Harness.r_work_saved,
    (r.S.Harness.r_completed, r.S.Harness.r_degraded),
    Array.to_list r.S.Harness.r_first.Measure.progress,
    match r.S.Harness.r_resume with
    | None -> []
    | Some res -> Array.to_list res.Measure.progress )

(* Time-to-recover and completed work of the checkpoint/restart harness, as
   a function of the checkpoint interval and the kill time (both relative to
   a fault-free control of the same workload). Two FATAL gates guard the
   fail-stop layer's determinism:
   - the fault-free control must be byte-identical to the plain (no chaos
     machinery at all) run, and
   - every recovery scenario's full digest must be bit-identical on a
     repeat. *)
let fig_recovery (iters, kill_fracs, intervals) =
  let gpus = 4 in
  let problem = S.Problem.make (d2 96) ~iterations:iters in
  let kind = S.Variants.Cpu_free in
  let seq_plain = (run_job (S.Harness.scenario_env kind problem ~gpus)).Measure.total in
  let control =
    let c =
      run_chaos
        (S.Harness.scenario_env
           ~env:(Sim_env.make ~faults:Fault.none ~fault_seed:recovery_seed ())
           kind problem ~gpus)
    in
    if not c.Measure.completed then fatal "recovery" "fault-free control aborted";
    c.Measure.base.Measure.total
  in
  if not (Time.equal control seq_plain) then
    fatal "recovery"
      "fault-free control differs (plain %d ns, chaos %d ns) — the fail-stop layer perturbed \
       an unfaulted run"
      (Time.to_ns seq_plain) (Time.to_ns control);
  let control_ns = Time.to_ns seq_plain in
  let scratch_k = 2 * iters in
  header
    (Printf.sprintf
       "Fig R  Fail-stop recovery: 2D Jacobi 96^2 x %d iters on %d GPUs, kill one GPU; control \
        %.2f us"
       iters gpus (us seq_plain));
  Printf.printf "  %8s %10s %10s %9s %10s %12s %12s %6s\n" "kill_us" "ckpt_every" "checkpoint"
    "saved_it" "restart_us" "end2end_us" "vs_scratch" "status";
  let points =
    List.concat_map
      (fun frac ->
        let kill_ns = int_of_float (float_of_int control_ns *. frac) in
        let spec = { Fault.none with Fault.kills = [ (1, Time.ns kill_ns) ] } in
        let scratch_total = ref None in
        List.map
          (fun k ->
            let run () =
              S.Harness.run_resilient
                ~env:(Sim_env.make ~faults:spec ~fault_seed:recovery_seed ())
                ~checkpoint_every:k kind problem ~gpus
            in
            let r = run () in
            if resilient_digest (run ()) <> resilient_digest r then
              fatal "recovery" "recovery digest differs on a repeat (kill at %d ns, checkpoint \
                                every %d)"
                kill_ns k;
            let scratch = k >= scratch_k in
            if scratch then scratch_total := Some r.S.Harness.r_total;
            let vs_scratch =
              match !scratch_total with
              | Some s when (not scratch) && Time.(s > zero) ->
                Printf.sprintf "%+.1f%%" ((us r.S.Harness.r_total -. us s) /. us s *. 100.0)
              | _ -> "-"
            in
            Printf.printf "  %8.2f %10s %9d  %8d %10.2f %12.2f %12s %6s\n"
              (float_of_int kill_ns /. 1e3)
              (if scratch then "scratch" else string_of_int k)
              r.S.Harness.r_checkpoint r.S.Harness.r_work_saved
              (us r.S.Harness.r_restart_cost) (us r.S.Harness.r_total) vs_scratch
              (if r.S.Harness.r_completed then if r.S.Harness.r_degraded then "ok*" else "ok"
               else "AB");
            point ~label:(S.Variants.name kind) ~gpus
              r.S.Harness.r_first.Measure.base
              ~extra:
                [
                  ("fault_seed", J.Int recovery_seed);
                  ("kill_us", J.Float (float_of_int kill_ns /. 1e3));
                  ("checkpoint_every", J.Int k);
                  ("scratch", J.Bool scratch);
                  ("killed_pe", J.Int (Option.value r.S.Harness.r_killed ~default:(-1)));
                  ("survivors", J.Int r.S.Harness.r_survivors);
                  ("checkpoint", J.Int r.S.Harness.r_checkpoint);
                  ("work_saved", J.Int r.S.Harness.r_work_saved);
                  ("restart_us", J.Float (us r.S.Harness.r_restart_cost));
                  ("end_to_end_us", J.Float (us r.S.Harness.r_total));
                  ("control_us", J.Float (us seq_plain));
                  ("completed", J.Bool r.S.Harness.r_completed);
                  ("degraded", J.Bool r.S.Harness.r_degraded);
                ])
          (* Scratch first so the vs_scratch column can reference it. *)
          (scratch_k :: List.filter (fun k -> k <> scratch_k) intervals))
      kill_fracs
  in
  Printf.printf "  (ok* = completed degraded on the survivors)\n";
  points

(* At least one checkpointed point strictly beats the restart-from-scratch
   point for the same kill time. *)
let beats_scratch pts =
  List.exists
    (fun p ->
      is "scratch" (J.Bool false) p
      && num "work_saved" p > 0.0
      && List.exists
           (fun q ->
             is "scratch" (J.Bool true) q
             && field "kill_us" q = field "kill_us" p
             && num "end_to_end_us" p < num "end_to_end_us" q)
           pts)
    pts

(* ---------------------------------------------------------------- *)
(* Fig K: collectives — device-initiated vs CPU-driven allreduce      *)
(* ---------------------------------------------------------------- *)

module Nv = Cpufree_comm.Nvshmem
module Coll = Cpufree_comm.Collective
module Interconnect = G.Interconnect

(* Allreduce of one scalar per GPU on a cluster-scale machine: the
   device-initiated schedule (signaled puts inside persistent kernels)
   against the same schedule driven by the host (memcpy_async +
   stream_synchronize per step) — the paper's control-path comparison,
   taken beyond Jacobi to the collective itself. Every run also reports
   how many endpoint pairs the fabric actually routed: on a 1024-GPU
   machine the tree touches a sliver of the 10^6 possible pairs, which is
   what makes the lazy tables pay off. *)

let collective_expected gpus = float_of_int (gpus * (gpus + 1) / 2)

let collective_device ~spec ~algorithm ~gpus =
  let eng = E.Engine.create () in
  let ctx = G.Runtime.create eng ~env:(Sim_env.make ~topology:spec ()) ~num_gpus:gpus () in
  let nv = Nv.init ctx in
  let coll = Coll.create ~algorithm nv ~label:"coll" in
  let expected = collective_expected gpus in
  let ok = ref true in
  for pe = 0 to gpus - 1 do
    ignore
      (E.Engine.spawn_callbacks eng
         ~name_of:(fun () -> Printf.sprintf "pe%d" pe)
         (fun () ->
           Coll.allreduce_sum_k coll ~pe (float_of_int (pe + 1)) (fun v ->
               if v <> expected then ok := false))
        : E.Engine.process)
  done;
  E.Engine.run eng;
  if not !ok then fatal "collective" "device allreduce result mismatch";
  (E.Engine.now eng, G.Runtime.net ctx)

let collective_host ~spec ~algorithm ~gpus =
  let eng = E.Engine.create () in
  let ctx = G.Runtime.create eng ~env:(Sim_env.make ~topology:spec ()) ~num_gpus:gpus () in
  let out = ref [||] in
  ignore
    (E.Engine.spawn_callbacks eng
       ~name_of:(fun () -> "host")
       (fun () ->
         Coll.host_allreduce_sum_k ctx ~algorithm ~label:"coll"
           (Array.init gpus (fun g -> float_of_int (g + 1)))
           (fun v -> out := v))
      : E.Engine.process);
  E.Engine.run eng;
  let expected = collective_expected gpus in
  if Array.length !out <> gpus || Array.exists (fun v -> v <> expected) !out then
    fatal "collective" "host allreduce result mismatch";
  (E.Engine.now eng, G.Runtime.net ctx)

let fig_collective (counts, algorithms) =
  let topologies gpus =
    (if gpus <= 8 then Topology.Hgx else Topology.Dgx { nodes = gpus / 8 })
    :: [
         Topology.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 };
         Topology.Dragonfly { a = 4; p = 4; h = 2; gpus_per_node = 8 };
       ]
  in
  let cells =
    List.concat_map
      (fun gpus ->
        List.concat_map
          (fun spec -> List.map (fun alg -> (gpus, spec, alg)) (algorithms gpus))
          (topologies gpus))
      counts
  in
  let runs =
    Parallel.map
      (fun (gpus, spec, alg) ->
        let dev_t, dev_net = collective_device ~spec ~algorithm:alg ~gpus in
        let host_t, host_net = collective_host ~spec ~algorithm:alg ~gpus in
        (dev_t, dev_net, host_t, host_net))
      cells
  in
  header
    "Fig K  Collectives: device-initiated vs CPU-driven allreduce, one scalar per GPU (total \
     us; pairs = endpoint pairs routed of gpus^2 possible)";
  Printf.printf "%6s %16s %10s %12s %12s %8s %12s %10s\n" "gpus" "topology" "algorithm"
    "device(us)" "host(us)" "speedup" "pairs-dev" "routing";
  List.concat_map
    (fun ((gpus, spec, alg), (dev_t, dev_net, host_t, host_net)) ->
      let routing = Topology.routing_kind (Interconnect.topology dev_net) in
      let speedup =
        if Time.to_ns dev_t = 0 then 0.0 else Time.to_sec_float host_t /. Time.to_sec_float dev_t
      in
      Printf.printf "%6d %16s %10s %12.2f %12.2f %7.2fx %12d %10s\n" gpus
        (Topology.spec_to_string spec) (Coll.algorithm_to_string alg) (us dev_t) (us host_t)
        speedup
        (Interconnect.pairs_resolved dev_net)
        routing;
      List.map
        (fun (driver, total, net) ->
          J.Obj
            [
              ("label", J.String (driver ^ ":" ^ Coll.algorithm_to_string alg));
              ("driver", J.String driver);
              ("algorithm", J.String (Coll.algorithm_to_string alg));
              ("gpus", J.Int gpus);
              ("topology", J.String (Topology.spec_to_string spec));
              ("routing", J.String routing);
              ("total_ns", J.Int (Time.to_ns total));
              ("pairs_resolved", J.Int (Interconnect.pairs_resolved net));
            ])
        [ ("device", dev_t, dev_net); ("host", host_t, host_net) ])
    (List.combine cells runs)

(* A device/host pair on the same >= 256-GPU machine and algorithm. *)
let cluster_pair pts =
  let key p = (field "gpus" p, field "topology" p, field "algorithm" p) in
  List.exists
    (fun p ->
      is "driver" (J.String "device") p
      && num "gpus" p >= 256.0
      && List.exists (fun q -> is "driver" (J.String "host") q && key q = key p) pts)
    pts

(* ---------------------------------------------------------------- *)
(* fig.autotune — the generic auto-offload pass vs the hand-built     *)
(* pipelines                                                          *)
(* ---------------------------------------------------------------- *)

(* One point per program. [generic] marks the programs that exist only
   outside the app enum — their [hand_plan]/[hand_ns] column is the best
   non-generic single-device port instead of a hand-built distributed
   pipeline. That every searched plan matches or beats its [hand_ns] is a
   gate. *)
let fig_autotune (n1d, n2d, n3d, iters) =
  header
    "Fig AUTO  Generic auto-offload pass: searched transformation sequence vs the hand-built \
     CPU-free pipelines";
  let gpus = 4 in
  (* Big enough that offloading and 1-D sharding pay for the launch and
     exchange overheads the simulator charges. *)
  let sm = { D.Programs.sm_n = 262144; sm_steps = 16 } in
  let search ?(env = Sim_env.default) sdfg ~iterations =
    match D.Autotune.search ~env sdfg ~gpus ~iterations with
    | Ok d -> d
    | Error e -> fatal "autotune" "search failed: %s" e
  in
  (* Both comparison plans are candidates of their program's search, so
     their cost is read from its [evaluated] list. *)
  let row ~label ~generic ~iterations sdfg ~hand_plan =
    let d = search sdfg ~iterations in
    let hand_ns = Time.to_ns (List.assoc hand_plan d.D.Autotune.evaluated) in
    let predicted_ns = Time.to_ns d.D.Autotune.predicted in
    let margin = 100.0 *. (float_of_int (hand_ns - predicted_ns) /. float_of_int hand_ns) in
    Printf.printf "%-10s %5d  %-38s %12s  %-30s %12s %7.1f%%\n" label gpus
      (D.Autotune.plan_to_string d.D.Autotune.best)
      (Time.to_string d.D.Autotune.predicted)
      (D.Autotune.plan_to_string hand_plan)
      (Time.to_string (Time.ns hand_ns))
      margin;
    ( d,
      J.Obj
        [
          ("label", J.String label);
          ("gpus", J.Int gpus);
          ("generic", J.Bool generic);
          ("plan", J.String (D.Autotune.plan_to_string d.D.Autotune.best));
          ("predicted_ns", J.Int predicted_ns);
          ("hand_plan", J.String (D.Autotune.plan_to_string hand_plan));
          ("hand_ns", J.Int hand_ns);
          ("margin_pct", J.Float margin);
          ("candidates", J.Int (List.length d.D.Autotune.evaluated));
        ] )
  in
  Printf.printf "%-10s %5s  %-38s %12s  %-30s %12s %8s\n" "program" "gpus" "searched plan"
    "predicted" "hand-built" "cost" "margin";
  let enum_points =
    List.map
      (fun (name, app) ->
        let arm = D.Pipeline.Cpu_free in
        let sdfg = D.Pipeline.frontend app arm ~gpus in
        let hand_plan = D.Pipeline.hand_plan arm ~gpus in
        snd (row ~label:name ~generic:false ~iterations:iters sdfg ~hand_plan))
      [
        ("jacobi1d", D.Pipeline.Jacobi1d { D.Programs.n_global = n1d; tsteps = iters });
        ( "jacobi2d",
          D.Pipeline.Jacobi2d { D.Programs.nx_global = n2d; ny_global = n2d; tsteps = iters } );
        ( "heat3d",
          D.Pipeline.Heat3d { D.Programs.nx3 = n3d; ny3 = n3d; nz3 = n3d; tsteps3 = iters } );
      ]
  in
  (* The generic program: exists only outside the app enum; its comparison
     column is the best non-generic single-device port. *)
  let sdfg = D.Programs.smoother_global sm in
  let steps = sm.D.Programs.sm_steps in
  let naive_plan =
    {
      D.Autotune.shard = false;
      gpus_used = 1;
      offload = D.Autotune.Offload_discrete { fusion = true };
    }
  in
  let d, generic_point =
    row ~label:"smoother" ~generic:true ~iterations:steps sdfg ~hand_plan:naive_plan
  in
  let p0 = D.Autotune.plan_to_string d.D.Autotune.best in
  if not d.D.Autotune.best.D.Autotune.shard then
    fatal "autotune" "smoother: searched plan %s does not shard across the machine" p0;
  (* Determinism gate: the plan choice must survive re-running the search. *)
  let p = D.Autotune.plan_to_string (search ~env:Sim_env.default sdfg ~iterations:steps).D.Autotune.best in
  if p <> p0 then fatal "autotune" "plan choice is not deterministic (re-run): %s vs %s" p0 p;
  Printf.printf "plan choice deterministic across re-runs\n";
  (* End-to-end gate: execute the searched plan with real buffers and check
     the generic program's result against its sequential reference. *)
  let built = D.Autotune.build ~backed:true d.D.Autotune.best sdfg in
  let (_ : Measure.result) =
    Measure.run_env ~label:"smoother/verify" ~gpus:d.D.Autotune.best.D.Autotune.gpus_used
      ~iterations:steps built.D.Exec.program
  in
  let reference = D.Programs.reference_smoother sm in
  let local = sm.D.Programs.sm_n / gpus in
  let worst = ref 0.0 in
  for pe = 0 to gpus - 1 do
    match built.D.Exec.read_array "U" ~pe with
    | None -> fatal "autotune" "smoother rank %d: array U missing after the run" pe
    | Some buf ->
      for i = 1 to local do
        let err = Float.abs (G.Buffer.get buf i -. reference.((pe * local) + i)) in
        if err > !worst then worst := err
      done
  done;
  if !worst > 1e-9 then fatal "autotune" "smoother verification failed: max |err| = %.3e" !worst;
  Printf.printf "smoother verified against the sequential reference (max |err| = %.2e)\n" !worst;
  enum_points @ [ generic_point ]

(* ---------------------------------------------------------------- *)
(* The registry                                                       *)
(* ---------------------------------------------------------------- *)

(* Order is the run order: the quick/full print order. *)
let registry =
  [
    timeline "fig2.1b"
      ~title:
        "Fig 2.1b  Nsight-style timeline: CPU-controlled overlapping stencil (2D 256^2, 8 GPUs, \
         3 iterations; 2 devices shown)"
      ~label:"baseline-overlap"
      (fun () -> run_traced (S.Harness.scenario_env S.Variants.Overlap (p2d_256 3) ~gpus:8));
    timeline "fig3.1"
      ~title:
        "Fig 3.1 (concept)  CPU-Free execution timeline: one cooperative launch, then only \
         device activity (2D 256^2, 8 GPUs, 3 iterations; 2 devices shown)"
      ~label:"cpu-free"
      (fun () -> run_traced (S.Harness.scenario_env S.Variants.Cpu_free (p2d_256 3) ~gpus:8));
    timeline "fig5.1b"
      ~title:"Fig 5.1b  Timeline: distributed DaCe MPI baseline (Jacobi 2D, 4 GPUs, 2 iterations)"
      ~label:"dace-baseline"
      (fun () ->
        let app = D.Pipeline.Jacobi2d { D.Programs.nx_global = 512; ny_global = 512; tsteps = 2 } in
        run_traced (D.Pipeline.scenario_env app D.Pipeline.Baseline_mpi ~gpus:4));
    grid_figure "fig2.2a"
      ~title:
        "Fig 2.2a  Pure communication + synchronization overhead, no computation (2D 256^2 weak \
         scaling, per-iteration time in us)"
      (fun gpus ->
        S.Problem.make ~compute:false (S.Problem.weak_scale (d2 256) ~gpus) ~iterations);
    fixed "fig2.2b" fig2_2b
      ~fields:(point_fields @ [ ("comm_frac_pct", `Float); ("non_compute_pct", `Float) ]);
    weak_figure ~name:"fig6.1" "fig6.1.small"
      ~title:"Fig 6.1 (left)  2D Jacobi weak scaling, small domain 256^2/GPU (per-iter us)" small;
    weak_figure ~name:"fig6.1" "fig6.1.medium"
      ~title:"Fig 6.1 (middle)  2D Jacobi weak scaling, medium domain 2048^2/GPU (per-iter us)"
      medium;
    weak_figure ~name:"fig6.1" "fig6.1.large"
      ~title:"Fig 6.1 (right)  2D Jacobi weak scaling, large domain 8192^2/GPU (per-iter us)" large;
    weak_figure ~suite:Full_only ~name:"fig6.2" "fig6.2.weak"
      ~title:"Fig 6.2 (left)  3D Jacobi 7pt weak scaling, 256^3/GPU (per-iter us)"
      (weak_grid (d3 256));
    grid_figure ~suite:Full_only ~name:"fig6.2" "fig6.2.nocompute"
      ~title:
        "Fig 6.2 (middle)  3D Jacobi no-compute communication time at the largest domain \
         (us/iter)"
      (fun gpus ->
        S.Problem.make ~compute:false (S.Problem.weak_scale (d3 256) ~gpus) ~iterations);
    grid_figure ~suite:Full_only ~name:"fig6.2" "fig6.2.strong"
      ~title:"Fig 6.2 (right)  3D Jacobi strong scaling, constant 512x512x512 domain (per-iter us)"
      (fun _ -> S.Problem.make (d3 512) ~iterations);
    grid_figure ~suite:Full_only ~name:"fig6.2" "fig6.2.strong-nocompute"
      ~title:"Fig 6.2 (right, no compute)  strong-scaling communication-only time (per-iter us)"
      (fun _ -> S.Problem.make ~compute:false (d3 512) ~iterations);
    fixed "fig6.3a" fig6_3a;
    fixed "fig6.3b" fig6_3b;
    fixed "headline" headline
      ~fields:[ ("comparison", `String); ("paper_pct", `Float); ("measured_pct", `Float) ];
    fixed ~suite:Full_only "supplementary.norm" supplementary_norm;
    fixed ~suite:Full_only ~name:"ablations" "ablation.A.relaxed-barriers" ablation_a;
    fixed ~suite:Full_only ~name:"ablations" "ablation.B.tb-specialization" ablation_b;
    fixed ~suite:Full_only ~name:"ablations" "ablation.C.co-resident-kernels" ablation_c;
    fixed ~suite:Full_only ~name:"ablations" "ablation.D.perks-capacity" ablation_d;
    Fig
      {
        name = "scaleout";
        figure = "fig.scaleout";
        suite = Paper;
        smoke = ([ 8; 16 ], 10);
        full = ([ 8; 16; 32 ], 20);
        run = fig_scaleout;
        fields = point_fields @ [ ("topology", `String); ("nodes", `Int) ];
        gates =
          [
            ( "no multi-node point (>= 16 GPUs on >= 2 nodes)",
              List.exists (fun p -> num "nodes" p >= 2.0 && num "gpus" p >= 16.0) );
          ];
      };
    Fig
      {
        name = "collective";
        figure = "fig.collective";
        suite = Paper;
        (* Dense and ring are n^2/n-step schedules — illustrative at small
           n, pointless wall-clock at cluster scale, where the log-depth
           schedules are the ones anyone would run. *)
        smoke =
          ( [ 8; 256 ],
            fun gpus ->
              if gpus <= 8 then [ Coll.Dense; Coll.Tree ] else [ Coll.Tree; Coll.Doubling ] );
        full =
          ( [ 8; 64; 256; 1024 ],
            fun gpus ->
              if gpus <= 64 then [ Coll.Dense; Coll.Ring; Coll.Tree; Coll.Doubling ]
              else [ Coll.Tree; Coll.Doubling ] );
        run = fig_collective;
        fields =
          [
            ("label", `String);
            ("driver", `String);
            ("algorithm", `String);
            ("gpus", `Int);
            ("topology", `String);
            ("routing", `String);
            ("total_ns", `Int);
            ("pairs_resolved", `Int);
          ];
        gates =
          [
            ( "a point's driver is neither device nor host",
              List.for_all (fun p ->
                  is "driver" (J.String "device") p || is "driver" (J.String "host") p) );
            ("no device/host pair at >= 256 GPUs on the same machine and algorithm", cluster_pair);
          ];
      };
    Fig
      {
        name = "autotune";
        figure = "fig.autotune";
        suite = Paper;
        smoke = (256, 256, 16, 5);
        full = (4096, 1024, 32, 50);
        run = fig_autotune;
        fields =
          [
            ("label", `String);
            ("gpus", `Int);
            ("generic", `Bool);
            ("plan", `String);
            ("predicted_ns", `Int);
            ("hand_plan", `String);
            ("hand_ns", `Int);
            ("margin_pct", `Float);
            ("candidates", `Int);
          ];
        gates =
          [
            ("no generic (non-enum) program point", List.exists (is "generic" (J.Bool true)));
            ( "a searched plan lost to its hand-built pipeline",
              List.for_all (fun p -> num "predicted_ns" p <= num "hand_ns" p) );
          ];
      };
    Fig
      {
        name = "chaos";
        figure = "fig.chaos";
        suite = On_demand;
        smoke = ([ 0.0; 1.0 ], 10, 4);
        full = ([ 0.0; 0.5; 1.0; 2.0; 4.0 ], 30, 8);
        run = fig_chaos;
        fields =
          point_fields
          @ [
              ("intensity", `Float);
              ("fault_seed", `Int);
              ("completed", `Bool);
              ("min_progress", `Int);
              ("dropped", `Int);
              ("resent", `Int);
              ("retried", `Int);
            ];
        gates =
          [
            ( "no completed fault-free control point (intensity 0)",
              List.exists (fun p -> num "intensity" p = 0.0 && is "completed" (J.Bool true) p) );
            ("no point with intensity > 0", List.exists (fun p -> num "intensity" p > 0.0));
          ];
      };
    Fig
      {
        name = "recovery";
        figure = "fig.recovery";
        suite = On_demand;
        smoke = (24, [ 0.4 ], [ 2 ]);
        full = (48, [ 0.25; 0.6 ], [ 1; 2; 4; 8 ]);
        run = fig_recovery;
        fields =
          point_fields
          @ [
              ("kill_us", `Float);
              ("checkpoint_every", `Int);
              ("scratch", `Bool);
              ("work_saved", `Int);
              ("end_to_end_us", `Float);
              ("completed", `Bool);
              ("degraded", `Bool);
            ];
        gates =
          [
            ( "no point that completed degraded on the survivors",
              List.exists (fun p -> is "completed" (J.Bool true) p && is "degraded" (J.Bool true) p)
            );
            ( "no checkpointed point that beats restart-from-scratch for the same kill time",
              beats_scratch );
          ];
      };
  ]

(* ---------------------------------------------------------------- *)
(* Running figures and writing BENCH_results.json                    *)
(* ---------------------------------------------------------------- *)

let json_figures : J.t list ref = ref []

let has_type ty v =
  match (ty, v) with
  | `Int, Some (J.Int _)
  | `Float, Some (J.Float _)
  | `String, Some (J.String _)
  | `Bool, Some (J.Bool _) ->
    true
  | _ -> false

(* The one schema check every figure shares: emitted once, non-empty
   points, every typed field present, then the figure's own gates. *)
let violation f points =
  let mistyped (i, p) =
    List.find_map
      (fun (k, ty) ->
        if has_type ty (field k p) then None
        else Some (Printf.sprintf "point %d: field %S missing or of the wrong JSON type" i k))
      f.fields
  in
  if List.exists (is "figure" (J.String f.figure)) !json_figures then Some "figure emitted twice"
  else if points = [] then Some "missing or empty points list"
  else
    match List.find_map mistyped (List.mapi (fun i p -> (i, p)) points) with
    | Some _ as e -> e
    | None -> Option.map fst (List.find_opt (fun (_, holds) -> not (holds points)) f.gates)

(* Run one figure at its smoke or full parameters, check it and record it
   for BENCH_results.json. Its wall-clock goes to stderr only. *)
let run_figure ~smoke (Fig f) =
  let t0 = wall () in
  let points = f.run (if smoke then f.smoke else f.full) in
  Printf.eprintf "[bench] %s %.3fs\n%!" f.figure (wall () -. t0);
  (match violation f points with
  | Some msg -> fatal f.name "%s violates its documented schema: %s" f.figure msg
  | None -> ());
  json_figures := J.Obj [ ("figure", J.String f.figure); ("points", J.List points) ] :: !json_figures

let write_results ~mode =
  let doc =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("generator", J.String "cpufree bench/main.exe");
        ("mode", J.String mode);
        ("gpu_counts", J.List (List.map (fun g -> J.Int g) gpu_counts));
        ("figures", J.List (List.rev !json_figures));
      ]
  in
  let oc = open_out "BENCH_results.json" in
  J.to_channel oc doc;
  close_out oc;
  Printf.eprintf "[bench] wrote BENCH_results.json (%d figures)\n%!" (List.length !json_figures)

let names =
  List.fold_left
    (fun acc (Fig f) -> if List.mem f.name acc then acc else acc @ [ f.name ])
    [] registry

(* Every token the harness understands; anything else is a typo the run
   must refuse loudly — a silently ignored "chaso" would regenerate the
   default figure set and look like a passing chaos run. *)
let known_args = [ "quick"; "json"; "smoke" ] @ names

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun a -> not (List.mem a known_args)) args with
  | [] -> ()
  | bad :: _ ->
    Printf.eprintf "unknown bench argument %S\n" bad;
    Printf.eprintf "usage: main.exe [%s]\n" (String.concat "|" known_args);
    exit 2);
  let has a = List.mem a args in
  let named = List.filter (fun n -> has n) names in
  let in_suite suites = List.filter (fun (Fig f) -> List.mem f.suite suites) registry in
  let figs, smoke, mode =
    if named <> [] then
      ( List.filter (fun (Fig f) -> List.mem f.name named) registry,
        has "smoke",
        String.concat "+" named ^ if has "smoke" then "-smoke" else "" )
    else if has "smoke" then (registry, true, "smoke")
    else if has "quick" then (in_suite [ Paper ], true, "quick")
    else (in_suite [ Paper; Full_only ], false, "full")
  in
  let t_start = wall () in
  List.iter (run_figure ~smoke) figs;
  let elapsed = wall () -. t_start in
  if has "json" || (mode <> "quick" && mode <> "full") then write_results ~mode;
  if named = [] then begin
    Printf.eprintf "[bench] jobs=%d wall-clock %.2fs\n%!" (Parallel.default_jobs ()) elapsed;
    Printf.printf "\nDone. See EXPERIMENTS.md for the per-figure comparison with the paper.\n"
  end
