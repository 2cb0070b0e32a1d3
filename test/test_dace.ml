(* Tests for the SDFG compiler: symbolic expressions, IR helpers, validation,
   loop detection, the transformation passes, and persistent fusion. *)

module D = Cpufree_dace
module Sym = D.Symbolic
module Sdfg = D.Sdfg
module Validate = D.Validate
module Loop = D.Loop
module Transforms = D.Transforms
module Pf = D.Persistent_fusion
module Programs = D.Programs

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

let env_of assoc s = List.assoc_opt s assoc

(* The tree-walking meaning of a condition, the oracle [compile_cond] is
   held to. *)
let eval_cond ~env = function
  | Sym.Lt (a, b) -> Sym.eval ~env a < Sym.eval ~env b
  | Sym.Le (a, b) -> Sym.eval ~env a <= Sym.eval ~env b
  | Sym.Eq (a, b) -> Sym.eval ~env a = Sym.eval ~env b
  | Sym.Ge (a, b) -> Sym.eval ~env a >= Sym.eval ~env b

let c = Sym.int
let v = Sym.sym

(* --- Symbolic ------------------------------------------------------------ *)

let symbolic_tests =
  [
    Alcotest.test_case "eval arithmetic" `Quick (fun () ->
        let e = Sym.((v "x" + c 2) * (v "x" - c 1)) in
        check_int "value" 10 (Sym.eval ~env:(env_of [ ("x", 3) ]) e));
    Alcotest.test_case "integer division" `Quick (fun () ->
        check_int "div" 3 (Sym.eval ~env:(env_of []) Sym.(c 7 / c 2)));
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Sym.eval ~env:(env_of []) Sym.(c 1 / c 0))));
    Alcotest.test_case "unbound symbol raises" `Quick (fun () ->
        Alcotest.check_raises "unbound" (Sym.Unbound_symbol "y") (fun () ->
            ignore (Sym.eval ~env:(env_of []) (v "y"))));
    Alcotest.test_case "conditions" `Quick (fun () ->
        let holds cond =
          let resolve = function "t" -> Some (Sym.Fixed 5) | _ -> None in
          Sym.force (Sym.compile_cond ~resolve cond) (Sym.make_slots 0)
        in
        check_bool "lt" true (holds (Sym.Lt (v "t", c 6)));
        check_bool "ge" false (holds (Sym.Ge (v "t", c 6)));
        check_bool "eq" true (holds (Sym.Eq (v "t", c 5))));
    Alcotest.test_case "simplify folds constants and identities" `Quick (fun () ->
        check_bool "fold" true (Sym.simplify Sym.(c 2 + c 3) = Sym.Const 5);
        check_bool "x+0" true (Sym.simplify Sym.(v "x" + c 0) = Sym.Sym "x");
        check_bool "x*1" true (Sym.simplify Sym.(v "x" * c 1) = Sym.Sym "x");
        check_bool "x*0" true (Sym.simplify Sym.(v "x" * c 0) = Sym.Const 0);
        check_bool "x-x" true (Sym.simplify Sym.(v "x" - v "x") = Sym.Const 0));
    Alcotest.test_case "free symbols" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "syms" [ "a"; "b" ]
          (Sym.free_symbols Sym.((v "a" * c 2) + (v "b" / v "a"))));
    Alcotest.test_case "is_const sees through simplification" `Quick (fun () ->
        check_bool "const" true (Sym.is_const Sym.((c 2 * c 3) + c 1) = Some 7);
        check_bool "not const" true (Sym.is_const (v "x") = None));
    Alcotest.test_case "to_string" `Quick (fun () ->
        check_str "str" "(x + 1)" (Sym.to_string Sym.(v "x" + c 1)));
    Alcotest.test_case "equal modulo simplification" `Quick (fun () ->
        check_bool "eq" true (Sym.equal Sym.(v "x" + c 0) (v "x")));
  ]

let symbolic_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"simplify preserves value" ~count:300
         QCheck.(pair (int_range (-50) 50) (int_range (-50) 50))
         (fun (a, b) ->
           let exprs =
             Sym.[ c a + c b; c a - c b; c a * c b; (v "x" + c a) * c b; v "x" - (c a + c b) ]
           in
           let env = env_of [ ("x", 7) ] in
           List.for_all
             (fun e ->
               try Sym.eval ~env e = Sym.eval ~env (Sym.simplify e) with Division_by_zero -> true)
             exprs));
  ]

(* Random expression trees over two symbols, for the simplification laws. *)
let arb_expr =
  let open QCheck.Gen in
  let leaf = oneof [ map Sym.int (int_range (-20) 20); oneofl [ Sym.sym "x"; Sym.sym "y" ] ] in
  let node self n =
    let sub = self (n / 2) in
    oneof
      [
        map2 (fun a b -> Sym.(a + b)) sub sub;
        map2 (fun a b -> Sym.(a - b)) sub sub;
        map2 (fun a b -> Sym.(a * b)) sub sub;
        map2 (fun a b -> Sym.(a / b)) sub sub;
      ]
  in
  let gen = sized (fix (fun self n -> if n <= 0 then leaf else oneof [ leaf; node self n ])) in
  QCheck.make ~print:Sym.to_string gen

let symbolic_laws =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"simplify is idempotent" ~count:500 arb_expr (fun e ->
           let once = Sym.simplify e in
           Sym.simplify once = once));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"eval agrees before and after simplify" ~count:500
         QCheck.(pair arb_expr (pair (int_range (-9) 9) (int_range (-9) 9)))
         (fun (e, (x, y)) ->
           let env = env_of [ ("x", x); ("y", y) ] in
           match Sym.eval ~env e with
           | exception Division_by_zero -> true  (* law holds vacuously *)
           | value -> Sym.eval ~env (Sym.simplify e) = value));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"simplify preserves the free-symbol budget" ~count:500
         arb_expr (fun e ->
           List.for_all
             (fun s -> List.mem s (Sym.free_symbols e))
             (Sym.free_symbols (Sym.simplify e))));
  ]

(* The compiled closures against the reference evaluator, on an
   environment shaped like an executor's: fixed symbols [c0]/[c1], slot
   variables [v0]..[v2] (an unassigned one is unbound), an unknown [u], and
   [rank]/[size] bound ahead of a slot variable of the same name. The two
   agree on the value and on which exception (and which symbol) fails. *)
let arb_compile_case =
  let open QCheck.Gen in
  let names = [ "c0"; "c1"; "v0"; "v1"; "v2"; "rank"; "size"; "u" ] in
  let leaf = oneof [ map Sym.int (int_range (-6) 6); map Sym.sym (oneofl names) ] in
  let node self n =
    let sub = self (n / 2) in
    oneof
      [
        map2 (fun a b -> Sym.(a + b)) sub sub;
        map2 (fun a b -> Sym.(a - b)) sub sub;
        map2 (fun a b -> Sym.(a * b)) sub sub;
        map2 (fun a b -> Sym.(a / b)) sub sub;
      ]
  in
  let expr = sized_size (int_bound 12) (fix (fun self n -> if n <= 0 then leaf else node self n)) in
  let cond =
    map3
      (fun k a b ->
        match k with
        | 0 -> Sym.Lt (a, b)
        | 1 -> Sym.Le (a, b)
        | 2 -> Sym.Eq (a, b)
        | _ -> Sym.Ge (a, b))
      (int_bound 3) expr expr
  in
  let slot = opt (int_range (-4) 4) in
  let print (e, c, (k0, k1), slots, (rank, size)) =
    let opt = function None -> "unbound" | Some v -> string_of_int v in
    Printf.sprintf "expr=%s cond=%s c0=%d c1=%d slots=[%s] rank=%d size=%d" (Sym.to_string e)
      (Sym.cond_to_string c) k0 k1
      (String.concat "; " (List.map opt slots))
      rank size
  in
  QCheck.make ~print
    (tup5 expr cond
       (pair (int_range (-4) 4) (int_range (-4) 4))
       (list_repeat 4 slot)
       (pair (int_range 0 3) (int_range 1 4)))

type 'a outcome = Value of 'a | Unbound of string | Div_by_zero

let outcome f =
  match f () with
  | v -> Value v
  | exception Sym.Unbound_symbol s -> Unbound s
  | exception Division_by_zero -> Div_by_zero

let compile_laws =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled expressions and conditions agree with eval" ~count:400
         arb_compile_case (fun (e, cnd, (k0, k1), slot_values, (rank, size)) ->
           (* Slots 0-2 hold v0..v2; slot 3 holds a variable named rank. *)
           let slot_names = [ "v0"; "v1"; "v2"; "rank" ] in
           let vars =
             [ ("c0", k0); ("c1", k1) ]
             @ List.concat
                 (List.map2
                    (fun n v -> match v with Some v -> [ (n, v) ] | None -> [])
                    slot_names slot_values)
           in
           let env = function
             | "rank" -> Some rank
             | "size" -> Some size
             | s -> List.assoc_opt s vars
           in
           let resolve = function
             | "rank" -> Some (Sym.Fixed rank)
             | "size" -> Some (Sym.Fixed size)
             | ("c0" | "c1") as s -> Some (Sym.Fixed (List.assoc s vars))
             | "v0" -> Some (Sym.Slot 0)
             | "v1" -> Some (Sym.Slot 1)
             | "v2" -> Some (Sym.Slot 2)
             | _ -> None
           in
           let slots = Sym.make_slots 4 in
           List.iteri (fun i v -> Option.iter (Sym.assign slots i) v) slot_values;
           (* Compiling never raises: a failure belongs to the run. *)
           let ce = Sym.compile ~resolve e and cc = Sym.compile_cond ~resolve cnd in
           outcome (fun () -> Sym.eval ~env e) = outcome (fun () -> Sym.force ce slots)
           && outcome (fun () -> eval_cond ~env cnd) = outcome (fun () -> Sym.force cc slots)));
  ]

(* --- Sdfg helpers --------------------------------------------------------- *)

let tiny_sdfg () = Programs.jacobi1d_mpi { Programs.n_global = 32; tsteps = 3 } ~gpus:4

let sdfg_tests =
  [
    Alcotest.test_case "find array and state" `Quick (fun () ->
        let s = tiny_sdfg () in
        check_bool "A" true (Sdfg.find_array s "A" <> None);
        check_bool "missing" true (Sdfg.find_array s "Z" = None);
        check_bool "guard" true (Sdfg.find_state s "guard" <> None));
    Alcotest.test_case "out_edges of the guard" `Quick (fun () ->
        let s = tiny_sdfg () in
        check_int "two" 2 (List.length (Sdfg.out_edges s "guard")));
    Alcotest.test_case "map_stmts reaches inside conditionals" `Quick (fun () ->
        let s = tiny_sdfg () in
        let count = ref 0 in
        let (_ : Sdfg.t) =
          Sdfg.map_stmts s ~f:(fun stmt ->
              (match stmt with Sdfg.S_lib _ -> incr count | _ -> ());
              [ stmt ])
        in
        (* 2 exchanges x (2 sends + 2 recvs + 2 waitalls) = 12 lib nodes,
           all behind rank guards. *)
        check_int "libnodes" 12 !count);
    Alcotest.test_case "summary prints counts" `Quick (fun () ->
        let s = tiny_sdfg () in
        let str = Format.asprintf "%a" Sdfg.pp_summary s in
        check_bool "name" true (Astring.String.is_infix ~affix:"jacobi1d" str));
  ]

(* --- Validate -------------------------------------------------------------- *)

let validate_tests =
  [
    Alcotest.test_case "benchmark programs validate" `Quick (fun () ->
        Validate.check_exn (tiny_sdfg ());
        Validate.check_exn
          (Programs.jacobi2d_mpi { Programs.nx_global = 16; ny_global = 16; tsteps = 2 } ~gpus:4);
        Validate.check_exn
          (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4);
        Validate.check_exn
          (Programs.jacobi2d_nvshmem { Programs.nx_global = 16; ny_global = 16; tsteps = 2 }
             ~gpus:4));
    Alcotest.test_case "undeclared array caught" `Quick (fun () ->
        let s = tiny_sdfg () in
        let bad =
          {
            s with
            Sdfg.states =
              [
                {
                  Sdfg.st_name = "init";
                  stmts =
                    [
                      Sdfg.S_map
                        {
                          Sdfg.m_var = "i";
                          m_lo = c 0;
                          m_hi = c 1;
                          m_schedule = Sdfg.Sequential;
                          m_sem = Sdfg.Fill { dst = "GHOST"; value = 0.0 };
                          m_work = c 1;
                        };
                    ];
                };
              ];
            edges = [];
            start_state = "init";
          }
        in
        match Validate.check bad with
        | Ok () -> Alcotest.fail "expected error"
        | Error es ->
          check_bool "mentions GHOST" true
            (List.exists
               (fun e -> Astring.String.is_infix ~affix:"GHOST" (Validate.error_to_string e))
               es));
    Alcotest.test_case "missing start state caught" `Quick (fun () ->
        let s = { (tiny_sdfg ()) with Sdfg.start_state = "nowhere" } in
        match Validate.check s with
        | Ok () -> Alcotest.fail "expected error"
        | Error _ -> ());
    Alcotest.test_case "unbound symbol caught" `Quick (fun () ->
        let s = tiny_sdfg () in
        let bad =
          Sdfg.map_stmts s ~f:(fun stmt ->
              match stmt with
              | Sdfg.S_map m -> [ Sdfg.S_map { m with Sdfg.m_hi = v "mystery" } ]
              | _ -> [ stmt ])
        in
        match Validate.check bad with
        | Ok () -> Alcotest.fail "expected error"
        | Error es ->
          check_bool "mentions symbol" true
            (List.exists
               (fun e -> Astring.String.is_infix ~affix:"mystery" (Validate.error_to_string e))
               es));
    Alcotest.test_case "errors name the offending node and state" `Quick (fun () ->
        let s = tiny_sdfg () in
        let bad =
          Sdfg.map_stmts s ~f:(fun stmt ->
              match stmt with
              | Sdfg.S_map m -> [ Sdfg.S_map { m with Sdfg.m_hi = v "mystery" } ]
              | _ -> [ stmt ])
        in
        match Validate.check bad with
        | Ok () -> Alcotest.fail "expected error"
        | Error es ->
          let msgs = List.map Validate.error_to_string es in
          (* the message carries the map variable and its enclosing state,
             not just the bad symbol *)
          check_bool "names the map" true
            (List.exists (Astring.String.is_infix ~affix:"map(i) range") msgs);
          check_bool "names the state" true
            (List.exists (Astring.String.is_infix ~affix:"[state comp_B]") msgs));
    Alcotest.test_case "require_symmetric flags non-symmetric NVSHMEM targets" `Quick
      (fun () ->
        let s = Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4 in
        let s = Transforms.gpu_transform s in
        let expanded = Transforms.expand_nvshmem s in
        (* Without the NVSHMEMArray pass, arrays stay Gpu_global. *)
        (match Validate.check ~require_symmetric:true expanded with
        | Ok () -> Alcotest.fail "expected symmetric-storage error"
        | Error _ -> ());
        let fixed = Transforms.expand_nvshmem (Transforms.nvshmem_array s) in
        Validate.check_exn ~require_symmetric:true fixed);
  ]

(* --- Loop detection --------------------------------------------------------- *)

let loop_tests =
  [
    Alcotest.test_case "detects the canonical time loop" `Quick (fun () ->
        match Loop.detect (tiny_sdfg ()) with
        | Error e -> Alcotest.fail e
        | Ok l ->
          check_str "var" "t" l.Loop.l_var;
          check_str "guard" "guard" l.Loop.l_guard;
          check (Alcotest.list Alcotest.string) "body"
            [ "exch_A"; "comp_B"; "exch_B"; "comp_A" ]
            l.Loop.l_body;
          check_str "exit" "done" l.Loop.l_exit;
          check_bool "init" true (Sym.equal l.Loop.l_init (c 1));
          check_bool "update" true (Sym.equal l.Loop.l_update Sym.(v "t" + c 1)));
    Alcotest.test_case "prologue and epilogue" `Quick (fun () ->
        let s = tiny_sdfg () in
        match Loop.detect s with
        | Error e -> Alcotest.fail e
        | Ok l ->
          check (Alcotest.list Alcotest.string) "prologue" [ "init" ] (Loop.prologue s l);
          check (Alcotest.list Alcotest.string) "epilogue" [ "done" ] (Loop.epilogue s l));
    Alcotest.test_case "no loop found in a straight-line program" `Quick (fun () ->
        let s =
          {
            (tiny_sdfg ()) with
            Sdfg.states = [ { Sdfg.st_name = "only"; stmts = [] } ];
            edges = [];
            start_state = "only";
          }
        in
        match Loop.detect s with
        | Ok _ -> Alcotest.fail "expected no loop"
        | Error msg -> check_bool "explains" true (Astring.String.is_infix ~affix:"loop" msg));
  ]

(* --- Transforms -------------------------------------------------------------- *)

let count_stmts pred sdfg =
  let n = ref 0 in
  let (_ : Sdfg.t) =
    Sdfg.map_stmts sdfg ~f:(fun stmt ->
        if pred stmt then incr n;
        [ stmt ])
  in
  !n

let transforms_tests =
  [
    Alcotest.test_case "gpu_transform schedules maps on the device" `Quick (fun () ->
        let s = Transforms.gpu_transform (tiny_sdfg ()) in
        check_int "no sequential maps" 0
          (count_stmts
             (function Sdfg.S_map m -> m.Sdfg.m_schedule = Sdfg.Sequential | _ -> false)
             s);
        (match Sdfg.find_array s "A" with
        | Some a -> check_bool "gpu storage" true (a.Sdfg.storage = Sdfg.Gpu_global)
        | None -> Alcotest.fail "missing A"));
    Alcotest.test_case "map_fusion fuses independent same-range maps" `Quick (fun () ->
        (* The init state has two Init_global maps over the same range writing
           different arrays: fusable. *)
        let s, fused = Transforms.map_fusion (tiny_sdfg ()) in
        check_int "one fusion" 1 fused;
        match Sdfg.find_state s "init" with
        | Some st -> check_int "one stmt left" 1 (List.length st.Sdfg.stmts)
        | None -> Alcotest.fail "no init");
    Alcotest.test_case "map_fusion refuses dependent maps" `Quick (fun () ->
        (* comp_B writes B which comp_A reads, but they are in different
           states anyway; construct an artificial dependent pair. *)
        let mk sem =
          Sdfg.S_map
            {
              Sdfg.m_var = "i";
              m_lo = c 1;
              m_hi = c 4;
              m_schedule = Sdfg.Sequential;
              m_sem = sem;
              m_work = c 1;
            }
        in
        let s = tiny_sdfg () in
        let dependent =
          {
            s with
            Sdfg.states =
              [
                {
                  Sdfg.st_name = "init";
                  stmts =
                    [
                      mk (Sdfg.Jacobi1d { src = "A"; dst = "B" });
                      mk (Sdfg.Jacobi1d { src = "B"; dst = "A" });
                    ];
                };
              ];
            edges = [];
            start_state = "init";
          }
        in
        let _, fused = Transforms.map_fusion dependent in
        check_int "no fusion" 0 fused);
    Alcotest.test_case "nvshmem_array marks only touched arrays" `Quick (fun () ->
        let s = Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4 in
        let extra =
          { Sdfg.arr_name = "scratch"; arr_size = c 8; storage = Sdfg.Host_heap }
        in
        let s = { s with Sdfg.arrays = extra :: s.Sdfg.arrays } in
        let s = Transforms.nvshmem_array s in
        (match Sdfg.find_array s "A" with
        | Some a -> check_bool "A symmetric" true (a.Sdfg.storage = Sdfg.Gpu_nvshmem)
        | None -> Alcotest.fail "missing A");
        match Sdfg.find_array s "scratch" with
        | Some a -> check_bool "scratch untouched" true (a.Sdfg.storage = Sdfg.Host_heap)
        | None -> Alcotest.fail "missing scratch");
    Alcotest.test_case "expansion: single element becomes nvshmem_p + signal" `Quick
      (fun () ->
        let s = Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4 in
        let s = Transforms.expand_nvshmem s in
        check_int "no high-level puts" 0
          (count_stmts (function Sdfg.S_lib (Sdfg.Nv_put _) -> true | _ -> false) s);
        check_bool "p nodes" true
          (count_stmts (function Sdfg.S_lib (Sdfg.Nv_p _) -> true | _ -> false) s > 0);
        check_bool "signal ops" true
          (count_stmts (function Sdfg.S_lib (Sdfg.Nv_signal_op _) -> true | _ -> false) s > 0);
        check_bool "quiet fences" true
          (count_stmts (function Sdfg.S_lib Sdfg.Nv_quiet -> true | _ -> false) s > 0));
    Alcotest.test_case "expansion: rows become putmem_signal, columns become iput" `Quick
      (fun () ->
        let s =
          Programs.jacobi2d_nvshmem { Programs.nx_global = 16; ny_global = 16; tsteps = 2 }
            ~gpus:4
        in
        let s = Transforms.expand_nvshmem s in
        check_bool "putmem_signal for rows" true
          (count_stmts (function Sdfg.S_lib (Sdfg.Nv_putmem_signal _) -> true | _ -> false) s
          > 0);
        check_bool "iput for columns" true
          (count_stmts (function Sdfg.S_lib (Sdfg.Nv_iput _) -> true | _ -> false) s > 0));
    Alcotest.test_case "expansion rejects symbolic strides" `Quick (fun () ->
        let s = Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4 in
        let bad =
          Sdfg.map_stmts s ~f:(fun stmt ->
              match stmt with
              | Sdfg.S_lib (Sdfg.Nv_put { src; src_region; dst; dst_region; to_pe; signal }) ->
                [
                  Sdfg.S_lib
                    (Sdfg.Nv_put
                       {
                         src;
                         src_region = { src_region with Sdfg.stride = v "s" };
                         dst;
                         dst_region;
                         to_pe;
                         signal;
                       });
                ]
              | _ -> [ stmt ])
        in
        match Transforms.expand_nvshmem bad with
        | (_ : Sdfg.t) -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "mpi removal check" `Quick (fun () ->
        check_bool "mpi remains" true
          (Transforms.replace_mpi_with_nvshmem_check (tiny_sdfg ()) |> Result.is_error);
        check_bool "clean" true
          (Transforms.replace_mpi_with_nvshmem_check
             (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4)
          |> Result.is_ok));
  ]

(* --- Persistent fusion --------------------------------------------------------- *)

let fusion_tests =
  [
    Alcotest.test_case "fusion schedules body maps persistent and adds barriers" `Quick
      (fun () ->
        let s =
          Transforms.gpu_transform
            (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4)
        in
        match Pf.apply s with
        | Error e -> Alcotest.fail e
        | Ok p ->
          check_int "4 body states" 4 (List.length p.Pf.body);
          (* Relaxed: one barrier per state boundary. *)
          check_int "barriers" 4 (Pf.barrier_count p);
          List.iter
            (fun st ->
              List.iter
                (fun stmt ->
                  match stmt with
                  | Sdfg.S_map m ->
                    check_bool "persistent" true (m.Sdfg.m_schedule = Sdfg.Gpu_persistent)
                  | _ -> ())
                st.Sdfg.stmts)
            p.Pf.body);
    Alcotest.test_case "naive mode adds a barrier after every global access" `Quick (fun () ->
        let s =
          Transforms.gpu_transform
            (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4)
        in
        match (Pf.apply ~relax:true s, Pf.apply ~relax:false s) with
        | Ok relaxed, Ok naive ->
          check_bool "more barriers" true (Pf.barrier_count naive > Pf.barrier_count relaxed)
        | _ -> Alcotest.fail "fusion failed");
    Alcotest.test_case "fusion preserves prologue and epilogue" `Quick (fun () ->
        let s =
          Transforms.gpu_transform
            (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 3 } ~gpus:4)
        in
        match Pf.apply s with
        | Error e -> Alcotest.fail e
        | Ok p ->
          check_int "prologue" 1 (List.length p.Pf.prologue);
          check_int "epilogue" 1 (List.length p.Pf.epilogue));
    Alcotest.test_case "fusion fails without a loop" `Quick (fun () ->
        let s =
          {
            (tiny_sdfg ()) with
            Sdfg.states = [ { Sdfg.st_name = "only"; stmts = [] } ];
            edges = [];
            start_state = "only";
          }
        in
        check_bool "error" true (Result.is_error (Pf.apply s)));
  ]

(* --- rank grid ------------------------------------------------------------------ *)

let rank_grid_tests =
  [
    Alcotest.test_case "factorizations" `Quick (fun () ->
        check (Alcotest.pair Alcotest.int Alcotest.int) "1" (1, 1) (Programs.rank_grid 1);
        check (Alcotest.pair Alcotest.int Alcotest.int) "2" (1, 2) (Programs.rank_grid 2);
        check (Alcotest.pair Alcotest.int Alcotest.int) "4" (2, 2) (Programs.rank_grid 4);
        check (Alcotest.pair Alcotest.int Alcotest.int) "8" (2, 4) (Programs.rank_grid 8);
        check (Alcotest.pair Alcotest.int Alcotest.int) "16" (4, 4) (Programs.rank_grid 16));
    Alcotest.test_case "rectangular at 2 and 8 (the paper's imbalance)" `Quick (fun () ->
        let rect n =
          let pr, pc = Programs.rank_grid n in
          pr <> pc
        in
        check_bool "2" true (rect 2);
        check_bool "8" true (rect 8);
        check_bool "4 square" false (rect 4));
    Alcotest.test_case "non power of two rejected" `Quick (fun () ->
        Alcotest.check_raises "bad"
          (Invalid_argument "Programs.rank_grid: size must be a power of two") (fun () ->
            ignore (Programs.rank_grid 6)));
  ]

(* --- Builder ----------------------------------------------------------------- *)

let builder_tests =
  [
    Alcotest.test_case "time_loop builds the canonical detectable loop" `Quick (fun () ->
        let b = D.Builder.create ~name:"mini" in
        D.Builder.array b "A" (c 8);
        D.Builder.state b "init"
          [
            Sdfg.S_map
              {
                Sdfg.m_var = "i";
                m_lo = c 0;
                m_hi = c 7;
                m_schedule = Sdfg.Sequential;
                m_sem = Sdfg.Fill { dst = "A"; value = 1.0 };
                m_work = c 1;
              };
          ];
        D.Builder.time_loop b ~var:"t" ~from_:1 ~steps:5 ~after:"init"
          ~body:[ ("work", []) ];
        let sdfg = D.Builder.finish b ~start:"init" in
        match Loop.detect sdfg with
        | Error e -> Alcotest.fail e
        | Ok l ->
          check_str "var" "t" l.Loop.l_var;
          check (Alcotest.list Alcotest.string) "body" [ "work" ] l.Loop.l_body;
          check_bool "limit" true (Sym.equal (c 6) (match l.Loop.l_cond with
            | Sym.Lt (_, hi) -> hi
            | _ -> c (-1))));
    Alcotest.test_case "duplicate declarations rejected" `Quick (fun () ->
        let b = D.Builder.create ~name:"dup" in
        D.Builder.array b "A" (c 4);
        Alcotest.check_raises "array" (Invalid_argument "Builder.array: duplicate array A")
          (fun () -> D.Builder.array b "A" (c 4));
        D.Builder.state b "s" [];
        Alcotest.check_raises "state" (Invalid_argument "Builder.state: duplicate state s")
          (fun () -> D.Builder.state b "s" []);
        D.Builder.signal b "f";
        Alcotest.check_raises "signal" (Invalid_argument "Builder.signal: duplicate signal f")
          (fun () -> D.Builder.signal b "f"));
    Alcotest.test_case "finish validates" `Quick (fun () ->
        let b = D.Builder.create ~name:"bad" in
        D.Builder.state b "only"
          [
            Sdfg.S_map
              {
                Sdfg.m_var = "i";
                m_lo = c 0;
                m_hi = c 3;
                m_schedule = Sdfg.Sequential;
                m_sem = Sdfg.Fill { dst = "GHOST"; value = 0.0 };
                m_work = c 1;
              };
          ];
        match D.Builder.finish b ~start:"only" with
        | (_ : Sdfg.t) -> Alcotest.fail "expected validation failure"
        | exception Invalid_argument msg ->
          check_bool "mentions GHOST" true (Astring.String.is_infix ~affix:"GHOST" msg));
    Alcotest.test_case "built program executes through the baseline backend" `Quick
      (fun () ->
        let b = D.Builder.create ~name:"exec" in
        D.Builder.array b "A" (c 8);
        D.Builder.state b "init"
          [
            Sdfg.S_map
              {
                Sdfg.m_var = "i";
                m_lo = c 0;
                m_hi = c 7;
                m_schedule = Sdfg.Sequential;
                m_sem = Sdfg.Fill { dst = "A"; value = 2.5 };
                m_work = c 1;
              };
          ];
        D.Builder.time_loop b ~var:"t" ~from_:1 ~steps:3 ~after:"init" ~body:[ ("noop", []) ];
        let sdfg = Transforms.gpu_transform (D.Builder.finish b ~start:"init") in
        let built = D.Exec.build_baseline ~backed:true sdfg in
        let (_ : Cpufree_core.Measure.result) =
          Cpufree_core.Measure.run_env ~label:"b" ~gpus:2 ~iterations:3 built.D.Exec.program
        in
        match built.D.Exec.read_array "A" ~pe:1 with
        | Some buf -> check (Alcotest.float 1e-12) "filled" 2.5 (Cpufree_gpu.Buffer.get buf 7)
        | None -> Alcotest.fail "missing A");
  ]

(* --- backend lowering errors ------------------------------------------------ *)

let run_program built gpus =
  Cpufree_core.Measure.run_env ~label:"t" ~gpus ~iterations:1 built.D.Exec.program

let lowering_tests =
  [
    Alcotest.test_case "unexpanded Nv_put is rejected by the persistent backend" `Quick
      (fun () ->
        let sdfg =
          Transforms.nvshmem_array
            (Transforms.gpu_transform
               (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 2 } ~gpus:4))
        in
        (* Deliberately skip expand_nvshmem. *)
        match Pf.apply sdfg with
        | Error e -> Alcotest.fail e
        | Ok p -> (
          let built = D.Exec.build_persistent p in
          match run_program built 4 with
          | (_ : Cpufree_core.Measure.result) -> Alcotest.fail "expected Lowering_error"
          | exception D.Exec.Lowering_error m ->
            check_bool "explains" true (Astring.String.is_infix ~affix:"expand" m)));
    Alcotest.test_case "MPI node inside a persistent kernel is rejected" `Quick (fun () ->
        let sdfg = Transforms.gpu_transform (tiny_sdfg ()) in
        match Pf.apply sdfg with
        | Error e -> Alcotest.fail e
        | Ok p -> (
          let built = D.Exec.build_persistent p in
          match run_program built 4 with
          | (_ : Cpufree_core.Measure.result) -> Alcotest.fail "expected Lowering_error"
          | exception D.Exec.Lowering_error m ->
            check_bool "explains" true (Astring.String.is_infix ~affix:"MPI" m)));
    Alcotest.test_case "NVSHMEM node in host code is rejected by the baseline backend" `Quick
      (fun () ->
        let sdfg =
          Transforms.expand_nvshmem
            (Transforms.nvshmem_array
               (Transforms.gpu_transform
                  (Programs.jacobi1d_nvshmem { Programs.n_global = 32; tsteps = 2 } ~gpus:4)))
        in
        let built = D.Exec.build_baseline sdfg in
        match run_program built 4 with
        | (_ : Cpufree_core.Measure.result) -> Alcotest.fail "expected Lowering_error"
        | exception D.Exec.Lowering_error m ->
          check_bool "explains" true (Astring.String.is_infix ~affix:"host" m));
    Alcotest.test_case "first matching interstate edge wins" `Quick (fun () ->
        (* The guard's two edges are complementary; exactly one fires per
           visit, so the loop executes TSTEPS times — observable via the
           iteration-dependent signal values after a run. *)
        let cfg = { Programs.n_global = 32; tsteps = 3 } in
        let sdfg = Transforms.gpu_transform (Programs.jacobi1d_mpi cfg ~gpus:2) in
        let built = D.Exec.build_baseline ~backed:true sdfg in
        let (_ : Cpufree_core.Measure.result) = run_program built 2 in
        (* Completion itself proves the CFG walk terminated after 3 loops. *)
        ());
    Alcotest.test_case "Jacobi3d semantics update only the interior" `Quick (fun () ->
        let cfg = { Programs.nx3 = 4; ny3 = 4; nz3 = 8; tsteps3 = 1 } in
        let sdfg = Transforms.gpu_transform (Programs.heat3d_mpi cfg ~gpus:2) in
        let built = D.Exec.build_baseline ~backed:true sdfg in
        let (_ : Cpufree_core.Measure.result) = run_program built 2 in
        match built.D.Exec.read_array "A" ~pe:0 with
        | None -> Alcotest.fail "missing A"
        | Some buf ->
          (* Shell cell (z=1, y=0, x=0 of rank 0) keeps its initial value. *)
          let w = 6 and pw = 36 in
          let idx = (1 * pw) + (0 * w) + 0 in
          check (Alcotest.float 1e-12) "shell fixed" (D.Exec.init_value (0 + idx))
            (Cpufree_gpu.Buffer.get buf idx));
  ]

(* Where transformation passes are claimed independent of application order,
   check it on randomly sized frontends: NVSHMEMArray only retargets storage
   (GPUTransform's Host_heap guard skips what it already moved), and
   in-kernel expansion rewrites only library nodes NVSHMEMArray never looks
   past. *)
let transforms_props =
  let arb_cfg =
    QCheck.(pair (oneofl [ 1; 2; 4; 8 ]) (pair (int_range 1 8) (int_range 1 4)))
  in
  let frontend (gpus, (k, tsteps)) =
    Programs.jacobi1d_nvshmem { Programs.n_global = gpus * k * 2; tsteps } ~gpus
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"GPUTransform and NVSHMEMArray commute" ~count:50 arb_cfg
         (fun cfg ->
           let s = frontend cfg in
           Transforms.gpu_transform (Transforms.nvshmem_array s)
           = Transforms.nvshmem_array (Transforms.gpu_transform s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"expansion and NVSHMEMArray commute" ~count:50 arb_cfg
         (fun cfg ->
           let s = frontend cfg in
           Transforms.expand_nvshmem (Transforms.nvshmem_array s)
           = Transforms.nvshmem_array (Transforms.expand_nvshmem s)));
  ]

(* --- Pinned persistent runs ------------------------------------------------ *)

module Mx = Cpufree_obs.Metrics
module Env = Cpufree_obs.Sim_env
module Measure = Cpufree_core.Measure
module Pipeline = D.Pipeline
module Time = Cpufree_engine.Time
module Engine = Cpufree_engine.Engine

(* Every app through the CPU-free arm, with the paper's relaxed schedule and
   with thread-block specialization, at 2 and 8 GPUs, clean and under drops
   and delays: the engine's event count (from a metrics sink), the final
   clock and the measured result (with the chaos report of a faulted run)
   are pinned, so a rewrite of the persistent lowering that moves one event
   fails here. *)
let pin_faults = "drop=0.3,delay=0.3@2000"

let pin_app = function
  | "jacobi1d" -> Pipeline.Jacobi1d { Programs.n_global = 256; tsteps = 6 }
  | "jacobi2d" -> Pipeline.Jacobi2d { Programs.nx_global = 32; ny_global = 32; tsteps = 4 }
  | "heat3d" -> Pipeline.Heat3d { Programs.nx3 = 16; ny3 = 16; nz3 = 16; tsteps3 = 3 }
  | a -> Alcotest.failf "unknown pin app %s" a

let fault_spec s =
  match Cpufree_fault.Fault.of_string s with Ok f -> f | Error e -> Alcotest.fail e

let engine_events reg =
  match List.find (fun i -> i.Mx.name = "engine.events") (Mx.items reg) with
  | { Mx.value = Mx.Counter_v n; _ } -> n
  | _ -> Alcotest.fail "engine.events is not a counter"

let pin_persistent app ~specialize_tb ~gpus ~faults =
  let reg = Mx.create () in
  let faults = Option.map fault_spec faults in
  let env = Env.make ?faults ~fault_seed:1 ~metrics:reg () in
  let job = Pipeline.scenario_env ~env ~specialize_tb (pin_app app) Pipeline.Cpu_free ~gpus in
  let o = Measure.run job in
  let r = o.Measure.result in
  let chaos =
    match o.Measure.chaos with
    | None -> ""
    | Some c ->
      Printf.sprintf " | completed %b trigger %s dropped %d delayed %d resent %d retried %d"
        c.Measure.completed
        (Option.value c.Measure.trigger ~default:"-")
        c.Measure.dropped c.Measure.delayed c.Measure.resent c.Measure.retried
  in
  Printf.sprintf
    "%s%s x%d%s: events %d clock %d compute %d comm %d overlap %.6f bytes %d%s" app
    (if specialize_tb then "+tb" else "") gpus
    (if Option.is_some faults then " faulted" else "")
    (engine_events reg) (Time.to_ns r.Measure.total) (Time.to_ns r.Measure.compute)
    (Time.to_ns r.Measure.comm) r.Measure.overlap r.Measure.bytes_moved chaos

let pin_cases =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun specialize_tb ->
          List.concat_map
            (fun gpus ->
              List.map (fun faults -> (app, specialize_tb, gpus, faults)) [ None; Some pin_faults ])
            [ 2; 8 ])
        [ false; true ])
    [ "jacobi1d"; "jacobi2d"; "heat3d" ]

let pinned_persistent =
  [
    "jacobi1d x2: events 200 clock 178912 compute 4426 comm 40250 overlap 0.000000 bytes 96";
    "jacobi1d x2 faulted: events 236 clock 307018 compute 4426 comm 40250 overlap 0.000000 bytes 96 | completed true trigger - dropped 4 delayed 6 resent 4 retried 7";
    "jacobi1d x8: events 962 clock 213900 compute 4400 comm 80500 overlap 0.000000 bytes 672";
    "jacobi1d x8 faulted: events 1288 clock 659439 compute 4400 comm 225464 overlap 0.000000 bytes 672 | completed true trigger - dropped 53 delayed 30 resent 53 retried 81";
    "jacobi1d+tb x2: events 276 clock 145300 compute 4425 comm 40250 overlap 0.000273 bytes 96";
    "jacobi1d+tb x2 faulted: events 312 clock 276207 compute 4425 comm 40250 overlap 0.000174 bytes 96 | completed true trigger - dropped 4 delayed 6 resent 4 retried 7";
    "jacobi1d+tb x8: events 1266 clock 180300 compute 4400 comm 80500 overlap 0.000000 bytes 672";
    "jacobi1d+tb x8 faulted: events 1592 clock 625839 compute 4400 comm 224140 overlap 0.000000 bytes 672 | completed true trigger - dropped 53 delayed 30 resent 53 retried 81";
    "jacobi2d x2: events 192 clock 129780 compute 4454 comm 26250 overlap 0.000000 bytes 2048";
    "jacobi2d x2 faulted: events 219 clock 230667 compute 4454 comm 24981 overlap 0.000000 bytes 2048 | completed true trigger - dropped 8 delayed 8 resent 8 retried 5";
    "jacobi2d x8: events 1210 clock 160836 compute 4426 comm 59740 overlap 0.000117 bytes 8192";
    "jacobi2d x8 faulted: events 1467 clock 492578 compute 4465 comm 198547 overlap 0.000111 bytes 8192 | completed true trigger - dropped 79 delayed 50 resent 79 retried 67";
    "jacobi2d+tb x2: events 276 clock 107452 compute 4628 comm 26250 overlap 0.000533 bytes 2048";
    "jacobi2d+tb x2 faulted: events 303 clock 211130 compute 4628 comm 24981 overlap 0.000320 bytes 2048 | completed true trigger - dropped 8 delayed 8 resent 8 retried 5";
    "jacobi2d+tb x8: events 1546 clock 138476 compute 4546 comm 59740 overlap 0.001507 bytes 8192";
    "jacobi2d+tb x8 faulted: events 1803 clock 471835 compute 4780 comm 193575 overlap 0.000837 bytes 8192 | completed true trigger - dropped 79 delayed 50 resent 79 retried 67";
    "heat3d x2: events 140 clock 94390 compute 4500 comm 10524 overlap 0.000000 bytes 15552";
    "heat3d x2 faulted: events 147 clock 171958 compute 4566 comm 21048 overlap 0.001045 bytes 15552 | completed true trigger - dropped 3 delayed 3 resent 3 retried 5";
    "heat3d x8: events 698 clock 96442 compute 4495 comm 17874 overlap 0.000000 bytes 108864";
    "heat3d x8 faulted: events 805 clock 390293 compute 4546 comm 94129 overlap 0.000446 bytes 108864 | completed true trigger - dropped 26 delayed 15 resent 26 retried 45";
    "heat3d+tb x2: events 180 clock 77956 compute 4914 comm 10524 overlap 0.000000 bytes 15552";
    "heat3d+tb x2 faulted: events 187 clock 161002 compute 5386 comm 20638 overlap 0.004264 bytes 15552 | completed true trigger - dropped 3 delayed 3 resent 3 retried 5";
    "heat3d+tb x8: events 698 clock 96442 compute 4495 comm 17874 overlap 0.000000 bytes 108864";
    "heat3d+tb x8 faulted: events 805 clock 390293 compute 4546 comm 94129 overlap 0.000446 bytes 108864 | completed true trigger - dropped 26 delayed 15 resent 26 retried 45";
  ]

(* A persistent run that stalls: a signal delayed past a one-shot retry
   budget. The stall report names every role by pid, group and wait, so
   the full text is pinned. *)
let pin_stall app =
  let env = Env.make ~faults:(fault_spec "delay=0.5@50000,retry=1x0") ~fault_seed:1 () in
  let job =
    Pipeline.scenario_env ~env ~specialize_tb:true
      (Pipeline.app_of_name app ~size:16 ~iters:4 |> Result.get_ok)
      Pipeline.Cpu_free ~gpus:4
  in
  match (Measure.run job).Measure.chaos with
  | Some c -> c.Measure.failure
  | None -> Alcotest.fail "a faulted run has a chaos report"

let pinned_stalls =
  [
    ( "jacobi2d",
      [
        "stall at 79.80us: signal sA_from_w@pe3: 0 retries exhausted after 1.00us (value 0)";
        "main(#1): flag jacobi2d.joined (value 0) (since 0ns)";
        "jacobi2d.host0(#2) [host]: flag jacobi2d_persistent.gpu0.done (value 0) (since 28.50us)";
        "jacobi2d.host1(#3) [host]: flag jacobi2d_persistent.gpu1.done (value 0) (since 28.50us)";
        "jacobi2d.host2(#4) [host]: flag jacobi2d_persistent.gpu2.done (value 0) (since 28.50us)";
        "jacobi2d.host3(#5) [host]: flag jacobi2d_persistent.gpu3.done (value 0) (since 28.50us)";
        "jacobi2d_persistent.gpu0.comm(#10) [gpu0]: flag pe0.pending (value 2) (since 31.40us)";
        "jacobi2d_persistent.gpu0.df(#11) [gpu0]: barrier gpu0.grid (gen 0, 1/2) (since 33.50us)";
        "jacobi2d_persistent.gpu1.comm(#12) [gpu1]: delay (since 65.02us)";
        "jacobi2d_persistent.gpu1.df(#13) [gpu1]: barrier gpu1.grid (gen 0, 1/2) (since 33.50us)";
        "jacobi2d_persistent.gpu2.comm(#14) [gpu2]: flag pe2.pending (value 2) (since 31.40us)";
        "jacobi2d_persistent.gpu2.df(#15) [gpu2]: barrier gpu2.grid (gen 0, 1/2) (since 33.50us)";
        "jacobi2d_persistent.gpu3.df(#17) [gpu3]: barrier gpu3.grid (gen 0, 1/2) (since 33.50us)";
        "nvshmem.putmem_signal_nbi.pe2.3(#20): delay (since 31.05us)";
        "nvshmem.iput_nbi.pe0.5(#22): delay (since 78.35us)";
      ] );
    ( "heat3d",
      [
        "stall at 32.05us: signal hA_from_down@pe0: 0 retries exhausted after 1.00us (value 0)";
        "main(#1): flag heat3d.joined (value 0) (since 0ns)";
        "heat3d.host0(#2) [host]: flag heat3d_persistent.gpu0.done (value 0) (since 28.50us)";
        "heat3d.host1(#3) [host]: flag heat3d_persistent.gpu1.done (value 0) (since 28.50us)";
        "heat3d.host2(#4) [host]: flag heat3d_persistent.gpu2.done (value 0) (since 28.50us)";
        "heat3d.host3(#5) [host]: flag heat3d_persistent.gpu3.done (value 0) (since 28.50us)";
        "heat3d_persistent.gpu0.df(#11) [gpu0]: delay (since 30.70us)";
        "heat3d_persistent.gpu1.comm(#12) [gpu1]: flag hA_from_up@pe1 (value 0, deadline 32.40us) (since 31.40us)";
        "heat3d_persistent.gpu1.df(#13) [gpu1]: delay (since 30.70us)";
        "heat3d_persistent.gpu2.comm(#14) [gpu2]: flag hA_from_up@pe2 (value 0, deadline 32.40us) (since 31.40us)";
        "heat3d_persistent.gpu2.df(#15) [gpu2]: delay (since 30.70us)";
        "heat3d_persistent.gpu3.comm(#16) [gpu3]: flag hA_from_up@pe3 (value 0, deadline 32.05us) (since 31.05us)";
        "heat3d_persistent.gpu3.df(#17) [gpu3]: delay (since 30.70us)";
        "nvshmem.putmem_signal_nbi.pe0.1(#18): delay (since 31.05us)";
        "nvshmem.putmem_signal_nbi.pe1.2(#19): delay (since 31.05us)";
        "nvshmem.putmem_signal_nbi.pe2.3(#20): delay (since 31.05us)";
        "nvshmem.putmem_signal_nbi.pe3.4(#21): delay (since 31.05us)";
        "nvshmem.putmem_signal_nbi.pe1.5(#22): delay (since 31.40us)";
        "nvshmem.putmem_signal_nbi.pe2.6(#23): delay (since 31.40us)";
      ] );
  ]

(* Every app through the MPI-form plans the autotuner chooses among —
   discrete kernels with map fusion (the hand-built baseline arm), without
   it, and maps left on the host — at 2 and 8 GPUs: events, final clock and
   result are pinned, so a rewrite of the baseline lowering or of the MPI
   layer that moves one event fails here. *)
let pin_baseline app offload ~gpus =
  let reg = Mx.create () in
  let env = Env.make ~metrics:reg () in
  let plan = { D.Autotune.shard = false; gpus_used = gpus; offload } in
  let app = pin_app app in
  let built = D.Autotune.build plan (Pipeline.frontend app Pipeline.Baseline_mpi ~gpus) in
  let r =
    (Measure.run
       (Measure.job ~env ~label:"pin" ~gpus ~iterations:(Pipeline.iterations app)
          built.D.Exec.program))
      .Measure.result
  in
  Printf.sprintf "%s %s: events %d clock %d compute %d comm %d overlap %.6f bytes %d"
    (Pipeline.app_name app) (D.Autotune.plan_to_string plan) (engine_events reg)
    (Time.to_ns r.Measure.total) (Time.to_ns r.Measure.compute) (Time.to_ns r.Measure.comm)
    r.Measure.overlap r.Measure.bytes_moved

let baseline_cases =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun offload -> List.map (fun gpus -> (app, offload, gpus)) [ 2; 8 ])
        [
          D.Autotune.Offload_discrete { fusion = true };
          D.Autotune.Offload_discrete { fusion = false };
          D.Autotune.Offload_host;
        ])
    [ "jacobi1d"; "jacobi2d"; "heat3d" ]

let pinned_baseline =
  [
    "jacobi1d gpu+fusion x2: events 280 clock 517000 compute 28613 comm 40800 overlap 0.000000 bytes 96";
    "jacobi1d gpu+fusion x8: events 1569 clock 865000 compute 81400 comm 159800 overlap 0.013767 bytes 672";
    "jacobi1d gpu x2: events 288 clock 523500 compute 30814 comm 40800 overlap 0.000000 bytes 96";
    "jacobi1d gpu x8: events 1601 clock 871500 compute 83600 comm 159800 overlap 0.013767 bytes 672";
    "jacobi1d host x2: events 178 clock 348168 compute 0 comm 40800 overlap 0.000000 bytes 96";
    "jacobi1d host x8: events 1049 clock 696000 compute 0 comm 159800 overlap 0.000000 bytes 672";
    "jacobi2d gpu+fusion x2: events 248 clock 436320 compute 19830 comm 70520 overlap 0.000000 bytes 4096";
    "jacobi2d gpu+fusion x8: events 1560 clock 813000 compute 55095 comm 328358 overlap 0.078829 bytes 14336";
    "jacobi2d gpu x2: events 256 clock 442820 compute 22030 comm 70520 overlap 0.000000 bytes 4096";
    "jacobi2d gpu x8: events 1592 clock 819500 compute 57295 comm 328358 overlap 0.078829 bytes 14336";
    "jacobi2d host x2: events 178 clock 319680 compute 0 comm 70520 overlap 0.000000 bytes 4096";
    "jacobi2d host x8: events 1280 clock 696120 compute 0 comm 328358 overlap 0.000000 bytes 14336";
    "heat3d gpu+fusion x2: events 148 clock 265000 compute 15499 comm 20424 overlap 0.000000 bytes 15552";
    "heat3d gpu+fusion x8: events 813 clock 439000 compute 41867 comm 78292 overlap 0.028138 bytes 108864";
    "heat3d gpu x2: events 156 clock 271500 compute 17700 comm 20424 overlap 0.000000 bytes 15552";
    "heat3d gpu x8: events 845 clock 445500 compute 44068 comm 78292 overlap 0.028138 bytes 108864";
    "heat3d host x2: events 94 clock 175200 compute 0 comm 20424 overlap 0.000000 bytes 15552";
    "heat3d host x8: events 597 clock 348384 compute 0 comm 78292 overlap 0.000000 bytes 108864";
  ]

(* A baseline run whose sends carry the wrong tag: no message matches, so
   every rank blocks in its first MPI_Waitall and the run deadlocks. The
   report names every rank by pid and group and every request flag, so the
   full text is pinned. *)
let baseline_deadlock () =
  let gpus = 4 in
  let mistag = function
    | Sdfg.S_lib (Sdfg.Mpi_isend m) -> [ Sdfg.S_lib (Sdfg.Mpi_isend { m with tag = m.tag + 100 }) ]
    | stmt -> [ stmt ]
  in
  let sdfg =
    Sdfg.map_stmts (Programs.jacobi1d_mpi { Programs.n_global = 64; tsteps = 2 } ~gpus) ~f:mistag
  in
  let built = D.Exec.build_baseline
      (D.Autotune.transform (Pipeline.hand_plan Pipeline.Baseline_mpi ~gpus) sdfg) in
  let eng = Engine.create () in
  let ctx = Cpufree_gpu.Runtime.create eng ~num_gpus:gpus () in
  let (_ : Engine.process) = Engine.spawn eng ~name:"main" (fun () -> built.D.Exec.program ctx) in
  match Engine.run eng with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock lines -> lines

let pinned_deadlock =
  [
    "main(#1): flag jacobi1d.joined (value 0) (since 0ns)";
    "jacobi1d.host0(#2) [host]: flag mpi.send.1 (value 0) (since 42.00us)";
    "jacobi1d.host1(#3) [host]: flag mpi.send.2 (value 0) (since 63.50us)";
    "jacobi1d.host2(#4) [host]: flag mpi.send.3 (value 0) (since 63.50us)";
    "jacobi1d.host3(#5) [host]: flag mpi.send.4 (value 0) (since 42.00us)";
  ]

(* Fiber resumes of one jacobi2d run on 2 GPUs, driven by the engine
   directly: every process of the run counts, host side included. A host
   rank runs its lowered program as one handover (a persistent run's
   prologue, cooperative launch, join, fence and epilogue included), its
   stream runs the map kernels as steps and a matched MPI message is a
   process of steps, so the count does not grow with the iterations. A
   persistent role is a step program too: its process resumes as a fiber
   only to start and to end its teardown delay, and a second role per GPU
   (the specialized schedule) adds exactly two per GPU. The rest are the
   main process's start and each host rank's and stream's start; the main
   process waits for the ranks as a handover, so its wake-up is a step. *)
let fiber_resumes ?specialize_tb arm ~iters =
  let app = Pipeline.Jacobi2d { Programs.nx_global = 32; ny_global = 32; tsteps = iters } in
  let built = Pipeline.compile ?specialize_tb app arm ~gpus:2 in
  let eng = Engine.create () in
  let ctx = Cpufree_gpu.Runtime.create eng ~num_gpus:2 () in
  let (_ : Engine.process) = Engine.spawn eng ~name:"main" (fun () -> built.D.Exec.program ctx) in
  Engine.run eng;
  Engine.fiber_resumes eng

let pinned_tests =
  [
    Alcotest.test_case "a persistent role resumes as a fiber only to start and to end teardown"
      `Quick (fun () ->
        List.iter
          (fun iters ->
            let name what = Printf.sprintf "%s, %d iterations" what iters in
            check_int (name "one role per GPU") 9
              (fiber_resumes ~specialize_tb:false Pipeline.Cpu_free ~iters);
            check_int (name "two roles per GPU") 13
              (fiber_resumes ~specialize_tb:true Pipeline.Cpu_free ~iters))
          [ 1; 2; 4 ]);
    Alcotest.test_case "a DaCe baseline rank resumes as a fiber only to start" `Quick (fun () ->
        List.iter
          (fun iters ->
            check_int (Printf.sprintf "%d iterations" iters) 5
              (fiber_resumes Pipeline.Baseline_mpi ~iters))
          [ 1; 2; 4 ]);
    Alcotest.test_case "persistent runs keep their events, clock and result" `Quick (fun () ->
        List.iter2
          (fun (app, specialize_tb, gpus, faults) want ->
            check_str want want (pin_persistent app ~specialize_tb ~gpus ~faults))
          pin_cases pinned_persistent);
    Alcotest.test_case "baseline runs keep their events, clock and result" `Quick (fun () ->
        List.iter2
          (fun (app, offload, gpus) want -> check_str want want (pin_baseline app offload ~gpus))
          baseline_cases pinned_baseline);
    Alcotest.test_case "a baseline rank blocked in MPI_Waitall keeps its deadlock text" `Quick
      (fun () ->
        check (Alcotest.list Alcotest.string) "report" pinned_deadlock (baseline_deadlock ()));
    Alcotest.test_case "a stalled persistent run keeps its stall text" `Quick (fun () ->
        List.iter
          (fun (app, want) ->
            check (Alcotest.list Alcotest.string) app want (pin_stall app))
          pinned_stalls);
  ]

let () =
  Alcotest.run "dace"
    [
      ("symbolic", symbolic_tests @ symbolic_props @ symbolic_laws @ compile_laws);
      ("sdfg", sdfg_tests);
      ("validate", validate_tests);
      ("loop", loop_tests);
      ("transforms", transforms_tests @ transforms_props);
      ("persistent-fusion", fusion_tests);
      ("rank-grid", rank_grid_tests);
      ("lowering", lowering_tests);
      ("builder", builder_tests);
      ("pinned", pinned_tests);
    ]
