open Sdfg

type t = {
  l_var : string;
  l_init : Symbolic.expr;
  l_cond : Symbolic.cond;
  l_update : Symbolic.expr;
  l_guard : string;
  l_body : string list;
  l_exit : string;
}

let edges ~var ~from_ ~steps ~entry ~guard ~exit body =
  let tv = Symbolic.sym var and limit = Symbolic.int (from_ + steps) in
  let edge ?cond ?(assign = []) src dst =
    { e_src = src; e_dst = dst; e_cond = cond; e_assign = assign }
  in
  let rec chain = function
    | a :: (b :: _ as rest) -> edge a b :: chain rest
    | [ last ] -> [ edge ~assign:[ (var, Symbolic.(tv + int 1)) ] last guard ]
    | [] -> []
  in
  edge ~assign:[ (var, Symbolic.int from_) ] entry guard
  :: edge ~cond:(Symbolic.Lt (tv, limit)) guard (List.hd body)
  :: edge ~cond:(Symbolic.Ge (tv, limit)) guard exit
  :: chain body

let complementary a b =
  match (a, b) with
  | Symbolic.Lt (x, y), Symbolic.Ge (x', y')
  | Symbolic.Ge (x, y), Symbolic.Lt (x', y')
  | Symbolic.Le (x, y), Symbolic.Ge (x', y')  (* Le/Ge pairs treated loosely *)
  | Symbolic.Ge (x, y), Symbolic.Le (x', y') -> Symbolic.equal x x' && Symbolic.equal y y'
  | _ -> false

let cond_var = function
  | Symbolic.Lt (Symbolic.Sym v, _) | Symbolic.Le (Symbolic.Sym v, _)
  | Symbolic.Ge (Symbolic.Sym v, _) | Symbolic.Eq (Symbolic.Sym v, _) -> Some v
  | _ -> None

(* Follow unconditional single-successor edges from [from_]; stop when we hit
   [guard] (returning the chain) or run out of road. *)
let rec chain_to sdfg ~guard from_ acc =
  if List.length acc > List.length sdfg.states then None
  else begin
    match out_edges sdfg from_ with
    | [ e ] when e.e_cond = None ->
      if String.equal e.e_dst guard then Some (List.rev (from_ :: acc), e)
      else chain_to sdfg ~guard e.e_dst (from_ :: acc)
    | _ -> None
  end

let detect sdfg =
  let candidates =
    List.filter_map
      (fun st ->
        match out_edges sdfg st.st_name with
        | [ e1; e2 ] -> (
          match (e1.e_cond, e2.e_cond) with
          | Some c1, Some c2 when complementary c1 c2 -> (
            (* Decide which branch is the body by finding the back edge. *)
            let try_body body_edge exit_edge =
              match cond_var (Option.get body_edge.e_cond) with
              | None -> None
              | Some var -> (
                match chain_to sdfg ~guard:st.st_name body_edge.e_dst [] with
                | None -> None
                | Some (body, back_edge) -> (
                  match List.assoc_opt var back_edge.e_assign with
                  | None -> None
                  | Some update ->
                    Some
                      {
                        l_var = var;
                        l_init = Symbolic.int 0;
                        l_cond = Option.get body_edge.e_cond;
                        l_update = update;
                        l_guard = st.st_name;
                        l_body = body;
                        l_exit = exit_edge.e_dst;
                      }))
            in
            match try_body e1 e2 with Some l -> Some l | None -> try_body e2 e1)
          | _ -> None)
        | _ -> None)
      sdfg.states
  in
  match candidates with
  | [] -> Error "no canonical guard/body/back-edge loop found"
  | _ :: _ :: _ -> Error "multiple loops found; persistent fusion expects exactly one"
  | [ loop ] -> (
    (* Recover the init value from an edge entering the guard from outside
       the body that assigns the induction variable. *)
    let entering =
      List.filter
        (fun e ->
          String.equal e.e_dst loop.l_guard && not (List.mem e.e_src loop.l_body))
        sdfg.edges
    in
    match
      List.find_map (fun e -> List.assoc_opt loop.l_var e.e_assign) entering
    with
    | Some init -> Ok { loop with l_init = init }
    | None -> Error (Printf.sprintf "no initialization of %s on a guard-entering edge" loop.l_var))

let prologue sdfg loop =
  let rec walk name acc =
    if String.equal name loop.l_guard then List.rev acc
    else begin
      match out_edges sdfg name with
      | [ e ] -> walk e.e_dst (name :: acc)
      | _ -> List.rev acc
    end
  in
  walk sdfg.start_state []

let epilogue sdfg loop =
  let rec walk name acc =
    let acc = name :: acc in
    match out_edges sdfg name with
    | [ e ] when e.e_cond = None -> walk e.e_dst acc
    | _ -> List.rev acc
  in
  walk loop.l_exit []
