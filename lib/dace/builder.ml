open Sdfg

type t = {
  b_name : string;
  mutable arrays : array_desc list;
  mutable signals : string list;
  mutable symbols : (string * int) list;
  mutable states : state list;
  mutable edges : edge list;
}

let create ~name =
  { b_name = name; arrays = []; signals = []; symbols = []; states = []; edges = [] }

let symbol t name value = t.symbols <- t.symbols @ [ (name, value) ]

let array t name size =
  if List.exists (fun a -> String.equal a.arr_name name) t.arrays then
    invalid_arg (Printf.sprintf "Builder.array: duplicate array %s" name);
  t.arrays <- t.arrays @ [ { arr_name = name; arr_size = size; storage = Host_heap } ]

let signal t name =
  if List.mem name t.signals then
    invalid_arg (Printf.sprintf "Builder.signal: duplicate signal %s" name);
  t.signals <- t.signals @ [ name ]

let state t name stmts =
  if List.exists (fun s -> String.equal s.st_name name) t.states then
    invalid_arg (Printf.sprintf "Builder.state: duplicate state %s" name);
  t.states <- t.states @ [ { st_name = name; stmts } ]

let edge t ?cond ?(assign = []) ~src ~dst () =
  t.edges <- t.edges @ [ { e_src = src; e_dst = dst; e_cond = cond; e_assign = assign } ]

let time_loop t ~var ~from_ ~steps ~after ~body =
  if body = [] then invalid_arg "Builder.time_loop: empty body";
  let guard = var ^ "_guard" and exit_ = var ^ "_done" in
  state t guard [];
  List.iter (fun (name, stmts) -> state t name stmts) body;
  state t exit_ [];
  let limit = Symbolic.int (from_ + steps) in
  let tv = Symbolic.sym var in
  edge t ~assign:[ (var, Symbolic.int from_) ] ~src:after ~dst:guard ();
  edge t ~cond:(Symbolic.Lt (tv, limit)) ~src:guard ~dst:(fst (List.hd body)) ();
  edge t ~cond:(Symbolic.Ge (tv, limit)) ~src:guard ~dst:exit_ ();
  let rec chain = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      edge t ~src:a ~dst:b ();
      chain rest
    | [ (last, _) ] -> edge t ~assign:[ (var, Symbolic.(tv + int 1)) ] ~src:last ~dst:guard ()
    | [] -> ()
  in
  chain body

let finish t ~start =
  let sdfg =
    {
      sdfg_name = t.b_name;
      arrays = t.arrays;
      sdfg_signals = t.signals;
      states = t.states;
      edges = t.edges;
      start_state = start;
      symbols = t.symbols;
    }
  in
  Validate.check_exn sdfg;
  sdfg
