open Sdfg

let c = Symbolic.int
let v = Symbolic.sym
let rank = v "rank"
let t_sym = v "t"

(* rank-grid helpers (2D): ri = rank / pc, ci = rank mod pc *)
let row_index ~pc = Symbolic.(rank / c pc)
let col_index ~pc = Symbolic.(rank - (c pc * (rank / c pc)))

let guarded cond stmts = S_cond { cond; then_ = stmts }

let require_divisible what a b =
  if b = 0 || a mod b <> 0 then
    invalid_arg (Printf.sprintf "Programs: %s (%d) must divide evenly among %d" what a b)

let loop_cfg ~body_states ~tsteps =
  (* init -> (t=1) guard; guard -[t < tsteps+1]-> body...; last -(t=t+1)-> guard;
     guard -[t >= tsteps+1]-> done *)
  let first_body = List.hd body_states and last_body = List.hd (List.rev body_states) in
  let rec chain = function
    | a :: (b :: _ as rest) ->
      { e_src = a; e_dst = b; e_cond = None; e_assign = [] } :: chain rest
    | [ _ ] | [] -> []
  in
  [
    { e_src = "init"; e_dst = "guard"; e_cond = None; e_assign = [ ("t", c 1) ] };
    {
      e_src = "guard";
      e_dst = first_body;
      e_cond = Some (Symbolic.Lt (t_sym, c (tsteps + 1)));
      e_assign = [];
    };
    {
      e_src = "guard";
      e_dst = "done";
      e_cond = Some (Symbolic.Ge (t_sym, c (tsteps + 1)));
      e_assign = [];
    };
  ]
  @ chain body_states
  @ [
      {
        e_src = last_body;
        e_dst = "guard";
        e_cond = None;
        e_assign = [ ("t", Symbolic.(t_sym + c 1)) ];
      };
    ]

(* ---------------------------------------------------------------- *)
(* Halo exchange: one table, two forms                               *)
(* ---------------------------------------------------------------- *)

(* One halo direction, seen from the sending rank. A table lists the
   directions in opposite pairs: element [i lxor 1] is the peer's name for
   the message I send in direction [i], so its [recv] is where the peer's
   message lands in me, and its [tag] and [flag] are the peer's. *)
type dir = {
  guard : Symbolic.cond;  (* the peer exists *)
  peer : Symbolic.expr;
  send : region;  (* what I send *)
  recv : region;  (* where it lands in the peer *)
  tag : int;  (* MPI tag of my message *)
  req : string;  (* request suffix: [s_<req>], [r_<req>] *)
  flag : string;  (* I wait on [..._from_<flag>] for the peer's message *)
}

(* MPI form (Listing 5.1): an Isend/Irecv pair per direction, then a
   Waitall per pair. *)
let exchange_mpi dirs ~arr =
  let posts =
    List.mapi
      (fun i d ->
        let o = dirs.(i lxor 1) in
        guarded d.guard
          [
            S_lib
              (Mpi_isend
                 { arr; region = d.send; dst_rank = d.peer; tag = d.tag; req = "s_" ^ d.req });
            S_lib
              (Mpi_irecv
                 { arr; region = o.recv; src_rank = d.peer; tag = o.tag; req = "r_" ^ d.req });
          ])
      (Array.to_list dirs)
  in
  let waits =
    List.map
      (fun d -> guarded d.guard [ S_lib (Mpi_waitall [ "s_" ^ d.req; "r_" ^ d.req ]) ])
      (Array.to_list dirs)
  in
  posts @ waits

(* NVSHMEM form (Listing 5.2): each send becomes a signaled put that raises
   the peer's from-opposite flag, each receive a wait on my own flag. *)
let exchange_nvshmem dirs ~arr ~flag =
  let puts =
    List.mapi
      (fun i d ->
        guarded d.guard
          [
            S_lib
              (Nv_put
                 {
                   src = arr;
                   src_region = d.send;
                   dst = arr;
                   dst_region = d.recv;
                   to_pe = d.peer;
                   signal = Some (flag dirs.(i lxor 1), Sig_set, t_sym);
                 });
          ])
      (Array.to_list dirs)
  in
  let waits =
    List.map
      (fun d -> guarded d.guard [ S_lib (Nv_signal_wait { signal = flag d; ge_value = t_sym }) ])
      (Array.to_list dirs)
  in
  puts @ waits

type form = Mpi | Nvshmem

(* A two-buffer time-stepped program: per step, exchange A's halo,
   B = stencil(A), exchange B's halo, A = stencil(B). [dirs arr] is the
   halo table of buffer [arr]; the NVSHMEM form names its flags
   [<prefix><arr>_from_<flag>]. *)
let two_buffer form ~name ~prefix ~dirs ~arr_size ~init ~compute ~tsteps ~symbols =
  let flag arr d = Printf.sprintf "%s%s_from_%s" prefix arr d.flag in
  let exchange ~name ~arr =
    {
      st_name = name;
      stmts =
        (match form with
        | Mpi -> exchange_mpi (dirs arr) ~arr
        | Nvshmem -> exchange_nvshmem (dirs arr) ~arr ~flag:(flag arr));
    }
  in
  let buffer arr_name = { arr_name; arr_size; storage = Host_heap } in
  {
    sdfg_name = name;
    arrays = [ buffer "A"; buffer "B" ];
    sdfg_signals =
      (match form with
      | Mpi -> []
      | Nvshmem ->
        List.concat_map (fun arr -> List.map (flag arr) (Array.to_list (dirs arr))) [ "A"; "B" ]);
    states =
      [
        { st_name = "init"; stmts = [ init "A"; init "B" ] };
        { st_name = "guard"; stmts = [] };
        exchange ~name:"exch_A" ~arr:"A";
        compute ~name:"comp_B" ~src:"A" ~dst:"B";
        exchange ~name:"exch_B" ~arr:"B";
        compute ~name:"comp_A" ~src:"B" ~dst:"A";
        { st_name = "done"; stmts = [] };
      ];
    edges = loop_cfg ~body_states:[ "exch_A"; "comp_B"; "exch_B"; "comp_A" ] ~tsteps;
    start_state = "init";
    symbols;
  }

(* Up/down neighbours along a 1-D decomposition: each rank owns [owned]
   slabs of [width] elements between a halo slab above (slab 0) and one
   below (slab [owned + 1]) — single elements for Jacobi 1D, whole planes
   for heat3d. Tags: [tag_base] upward, [tag_base + 1] downward. *)
let updown ~size ~owned ~width ~tag_base =
  let slab i = contiguous ~offset:(c (i * width)) ~count:(c width) in
  [|
    {
      guard = Symbolic.Ge (rank, c 1);
      peer = Symbolic.(rank - c 1);
      send = slab 1;
      recv = slab (owned + 1);
      tag = tag_base;
      req = "up";
      flag = "up";
    };
    {
      guard = Symbolic.Lt (rank, c (size - 1));
      peer = Symbolic.(rank + c 1);
      send = slab owned;
      recv = slab 0;
      tag = tag_base + 1;
      req = "dn";
      flag = "down";
    };
  |]

(* ---------------------------------------------------------------- *)
(* Jacobi 1D                                                         *)
(* ---------------------------------------------------------------- *)

type config1d = { n_global : int; tsteps : int }

let jacobi1d form cfg ~gpus =
  require_divisible "n_global" cfg.n_global gpus;
  let n = cfg.n_global / gpus in
  let map ~lo ~hi m_sem =
    S_map { m_var = "i"; m_lo = c lo; m_hi = c hi; m_schedule = Sequential; m_sem; m_work = c 1 }
  in
  two_buffer form ~name:"jacobi1d" ~prefix:"s"
    ~dirs:(fun arr ->
      updown ~size:gpus ~owned:n ~width:1 ~tag_base:(if arr = "A" then 10 else 20))
    ~arr_size:(c (n + 2))
    ~init:(fun dst ->
      map ~lo:0 ~hi:(n + 1) (Init_global { dst; global_off = Symbolic.(rank * c n) }))
    ~compute:(fun ~name ~src ~dst ->
      { st_name = name; stmts = [ map ~lo:1 ~hi:n (Jacobi1d { src; dst }) ] })
    ~tsteps:cfg.tsteps
    ~symbols:[ ("N", cfg.n_global); ("TSTEPS", cfg.tsteps); ("n", n) ]

let jacobi1d_mpi = jacobi1d Mpi
let jacobi1d_nvshmem = jacobi1d Nvshmem

let reference1d cfg =
  let n = cfg.n_global in
  let a = Array.init (n + 2) Exec.init_value in
  let b = Array.copy a in
  let step src dst =
    for i = 1 to n do
      dst.(i) <- (src.(i - 1) +. src.(i) +. src.(i + 1)) /. 3.0
    done
  in
  for _ = 1 to cfg.tsteps do
    step a b;
    step b a
  done;
  a

(* ---------------------------------------------------------------- *)
(* Jacobi 2D                                                         *)
(* ---------------------------------------------------------------- *)

type config2d = { nx_global : int; ny_global : int; tsteps : int }

let rank_grid size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Programs.rank_grid: size must be a power of two";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let k = log2 size in
  (* Split columns first (pc >= pr): at non-square counts (2, 8) the split is
     rectangular with long strided column exchanges — the imbalance the paper
     observes at 2 and 8 GPUs. *)
  let pc = 1 lsl ((k + 1) / 2) in
  (size / pc, pc)

(* The four neighbours on the [pr x pc] rank grid; local row width
   W = w + 2. Rows are contiguous, columns strided by W. *)
let compass ~h ~w ~pr ~pc =
  let wd = w + 2 in
  let row offset = contiguous ~offset:(c offset) ~count:(c w) in
  let col offset = { offset = c offset; stride = c wd; count = c h } in
  let dir i req guard peer send recv = { guard; peer; send; recv; tag = i; req; flag = req } in
  [|
    (* my first owned row lands in the north peer's south halo row *)
    dir 0 "n" (Symbolic.Ge (rank, c pc)) Symbolic.(rank - c pc) (row (wd + 1))
      (row (((h + 1) * wd) + 1));
    dir 1 "s" (Symbolic.Lt (rank, c (pc * (pr - 1)))) Symbolic.(rank + c pc)
      (row ((h * wd) + 1)) (row 1);
    (* my first owned column lands in the west peer's east halo column *)
    dir 2 "w" (Symbolic.Ge (col_index ~pc, c 1)) Symbolic.(rank - c 1) (col (wd + 1))
      (col (wd + w + 1));
    dir 3 "e" (Symbolic.Lt (col_index ~pc, c (pc - 1))) Symbolic.(rank + c 1) (col (wd + w))
      (col wd);
  |]

let jacobi2d form cfg ~gpus =
  let pr, pc = rank_grid gpus in
  require_divisible "ny_global" cfg.ny_global pr;
  require_divisible "nx_global" cfg.nx_global pc;
  let h = cfg.ny_global / pr and w = cfg.nx_global / pc in
  let dirs = compass ~h ~w ~pr ~pc in
  let map ~lo ~hi ~work m_sem =
    S_map { m_var = "r"; m_lo = c lo; m_hi = c hi; m_schedule = Sequential; m_sem; m_work = c work }
  in
  two_buffer form ~name:"jacobi2d" ~prefix:"s" ~dirs:(fun _ -> dirs)
    ~arr_size:(c ((h + 2) * (w + 2)))
    ~init:(fun dst ->
      map ~lo:0 ~hi:(h + 1) ~work:(w + 2)
        (Init_global2d
           {
             dst;
             row_width = c (w + 2);
             global_row0 = Symbolic.(row_index ~pc * c h);
             global_row_width = c (cfg.nx_global + 2);
             global_col0 = Symbolic.(col_index ~pc * c w);
           }))
    ~compute:(fun ~name ~src ~dst ->
      {
        st_name = name;
        stmts =
          [
            map ~lo:1 ~hi:h ~work:w
              (Jacobi2d { src; dst; row_width = c (w + 2); col_lo = c 1; col_hi = c w });
          ];
      })
    ~tsteps:cfg.tsteps
    ~symbols:
      [
        ("NX", cfg.nx_global);
        ("NY", cfg.ny_global);
        ("TSTEPS", cfg.tsteps);
        ("h", h);
        ("w", w);
        ("pr", pr);
        ("pc", pc);
      ]

let jacobi2d_mpi = jacobi2d Mpi
let jacobi2d_nvshmem = jacobi2d Nvshmem

let reference2d cfg =
  let wd = cfg.nx_global + 2 in
  let size = (cfg.ny_global + 2) * wd in
  let a = Array.init size Exec.init_value in
  let b = Array.copy a in
  let step src dst =
    for r = 1 to cfg.ny_global do
      for cx = 1 to cfg.nx_global do
        let k = (r * wd) + cx in
        dst.(k) <- 0.25 *. (src.(k - wd) +. src.(k + wd) +. src.(k - 1) +. src.(k + 1))
      done
    done
  in
  for _ = 1 to cfg.tsteps do
    step a b;
    step b a
  done;
  a

(* ---------------------------------------------------------------- *)
(* Heat 3D                                                           *)
(* ---------------------------------------------------------------- *)

type config3d = { nx3 : int; ny3 : int; nz3 : int; tsteps3 : int }

(* z-decomposed 3D 7-point Jacobi (transient heat conduction). Each rank owns
   nz3/size padded planes plus one halo plane per side; halo planes are
   contiguous, so the NVSHMEM form uses the combined putmem+signal and the
   MPI form plain contiguous messages — the 3D analogue of the paper's
   hand-written stencil (§6.1), here as a compiler benchmark. *)
let heat3d form cfg ~gpus =
  require_divisible "nz3" cfg.nz3 gpus;
  let lz = cfg.nz3 / gpus in
  let w = cfg.nx3 + 2 and plane_w = (cfg.nx3 + 2) * (cfg.ny3 + 2) in
  two_buffer form ~name:"heat3d" ~prefix:"h"
    ~dirs:(fun arr ->
      updown ~size:gpus ~owned:lz ~width:plane_w ~tag_base:(if arr = "A" then 30 else 40))
    ~arr_size:(c ((lz + 2) * plane_w))
    ~init:(fun dst ->
      S_map
        {
          m_var = "i";
          m_lo = c 0;
          m_hi = c (((lz + 2) * plane_w) - 1);
          m_schedule = Sequential;
          m_sem = Init_global { dst; global_off = Symbolic.(rank * c Stdlib.(lz * plane_w)) };
          m_work = c 1;
        })
    ~compute:(fun ~name ~src ~dst ->
      {
        st_name = name;
        stmts =
          [
            S_map
              {
                m_var = "z";
                m_lo = c 1;
                m_hi = c lz;
                m_schedule = Sequential;
                m_sem =
                  Jacobi3d { src; dst; row_width = c w; plane_width = c plane_w; ny = c cfg.ny3 };
                m_work = c (cfg.nx3 * cfg.ny3);
              };
          ];
      })
    ~tsteps:cfg.tsteps3
    ~symbols:
      [ ("NX", cfg.nx3); ("NY", cfg.ny3); ("NZ", cfg.nz3); ("TSTEPS", cfg.tsteps3); ("lz", lz) ]

let heat3d_mpi = heat3d Mpi
let heat3d_nvshmem = heat3d Nvshmem

let reference3d cfg =
  let w = cfg.nx3 + 2 in
  let plane_w = w * (cfg.ny3 + 2) in
  let size = (cfg.nz3 + 2) * plane_w in
  let a = Array.init size Exec.init_value in
  let b = Array.copy a in
  let step src dst =
    for z = 1 to cfg.nz3 do
      for y = 1 to cfg.ny3 do
        for x = 1 to cfg.nx3 do
          let k = (z * plane_w) + (y * w) + x in
          dst.(k) <-
            (src.(k - plane_w) +. src.(k + plane_w) +. src.(k - w) +. src.(k + w)
            +. src.(k - 1) +. src.(k + 1))
            /. 6.0
        done
      done
    done
  in
  for _ = 1 to cfg.tsteps3 do
    step a b;
    step b a
  done;
  a

(* ---------------------------------------------------------------- *)
(* Triple-buffer smoother (global form)                              *)
(* ---------------------------------------------------------------- *)

type config_smoother = { sm_n : int; sm_steps : int }

let smoother_global cfg =
  let n = cfg.sm_n in
  let init arr =
    S_map
      {
        m_var = "i";
        m_lo = c 0;
        m_hi = c (n + 1);
        m_schedule = Sequential;
        m_sem = Init_global { dst = arr; global_off = c 0 };
        m_work = c 1;
      }
  in
  let smooth ~name ~src ~dst =
    {
      st_name = name;
      stmts =
        [
          S_map
            {
              m_var = "i";
              m_lo = c 1;
              m_hi = c n;
              m_schedule = Sequential;
              m_sem = Jacobi1d { src; dst };
              m_work = c 1;
            };
        ];
    }
  in
  let arr name =
    { arr_name = name; arr_size = c (n + 2); storage = Host_heap }
  in
  let body = [ "smooth_V"; "smooth_W"; "smooth_U" ] in
  {
    sdfg_name = "smoother";
    arrays = [ arr "U"; arr "V"; arr "W" ];
    sdfg_signals = [];
    states =
      [
        { st_name = "init"; stmts = [ init "U"; init "V"; init "W" ] };
        { st_name = "guard"; stmts = [] };
        smooth ~name:"smooth_V" ~src:"U" ~dst:"V";
        smooth ~name:"smooth_W" ~src:"V" ~dst:"W";
        smooth ~name:"smooth_U" ~src:"W" ~dst:"U";
        { st_name = "done"; stmts = [] };
      ];
    edges = loop_cfg ~body_states:body ~tsteps:cfg.sm_steps;
    start_state = "init";
    symbols = [ ("N", n); ("STEPS", cfg.sm_steps) ];
  }

let reference_smoother cfg =
  let n = cfg.sm_n in
  let u = Array.init (n + 2) Exec.init_value in
  let v = Array.copy u in
  let w = Array.copy u in
  let step src dst =
    for i = 1 to n do
      dst.(i) <- (src.(i - 1) +. src.(i) +. src.(i + 1)) /. 3.0
    done
  in
  for _ = 1 to cfg.sm_steps do
    step u v;
    step v w;
    step w u
  done;
  u
