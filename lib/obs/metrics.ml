type labels = (string * string) list

(* One cell per slot; reads fold the cells with an associative, commutative
   combine (sum / max), so every observable total is independent of which
   slot bumped what. *)

let nbuckets = 64

type hcell = {
  mutable hcount : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
  hbuckets : int array;
}

type body =
  | C of int array
  | G of int array
  | H of hcell array

type instrument = { iname : string; ilabels : labels; body : body }

(* Key instruments by name plus sorted labels rendered to one string, so
   lookup needs no polymorphic list hashing. *)
type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let enabled = function Some _ -> true | None -> false

let sort_labels ls =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) ls

let key name labels =
  let buf = Buffer.create (String.length name + 16) in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t ~name ~labels ~slots make_body =
  if slots < 1 then invalid_arg "Metrics: slots must be positive";
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some inst -> inst
  | None ->
    let inst = { iname = name; ilabels = labels; body = make_body slots } in
    Hashtbl.replace t.tbl k inst;
    inst

let want_kind what inst =
  match (what, inst.body) with
  | `C, C _ | `G, G _ | `H, H _ -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is already registered as a %s" inst.iname
         (kind_name inst.body))

let fresh_hcell () = { hcount = 0; hsum = 0; hmin = 0; hmax = 0; hbuckets = Array.make nbuckets 0 }

module Counter = struct
  type h = int array

  let cell c slot =
    if slot < 0 || slot >= Array.length c then
      invalid_arg (Printf.sprintf "Metrics.Counter: no slot %d" slot);
    slot

  let add ?(slot = 0) c v =
    if v < 0 then invalid_arg "Metrics.Counter.add: negative amount";
    let i = cell c slot in
    c.(i) <- c.(i) + v

  let incr ?slot c = add ?slot c 1
  let value c = Array.fold_left ( + ) 0 c
end

module Gauge = struct
  type h = int array

  let set ?(slot = 0) g v =
    if slot < 0 || slot >= Array.length g then
      invalid_arg (Printf.sprintf "Metrics.Gauge: no slot %d" slot);
    g.(slot) <- v

  let value g = Array.fold_left Stdlib.max min_int g
end

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    Stdlib.min (nbuckets - 1) (go 0 v)
  end

module Histogram = struct
  type h = hcell array

  let observe ?(slot = 0) hs v =
    if slot < 0 || slot >= Array.length hs then
      invalid_arg (Printf.sprintf "Metrics.Histogram: no slot %d" slot);
    let c = hs.(slot) in
    if c.hcount = 0 then begin
      c.hmin <- v;
      c.hmax <- v
    end
    else begin
      c.hmin <- Stdlib.min c.hmin v;
      c.hmax <- Stdlib.max c.hmax v
    end;
    c.hcount <- c.hcount + 1;
    c.hsum <- c.hsum + v;
    let b = bucket_of v in
    c.hbuckets.(b) <- c.hbuckets.(b) + 1

  let count hs = Array.fold_left (fun acc c -> acc + c.hcount) 0 hs
  let sum hs = Array.fold_left (fun acc c -> acc + c.hsum) 0 hs
end

let counter t ~name ?(labels = []) ?(slots = 1) () =
  let inst = register t ~name ~labels ~slots (fun n -> C (Array.make n 0)) in
  want_kind `C inst;
  match inst.body with C c -> c | _ -> assert false

let gauge t ~name ?(labels = []) ?(slots = 1) () =
  let inst = register t ~name ~labels ~slots (fun n -> G (Array.make n min_int)) in
  want_kind `G inst;
  match inst.body with G g -> g | _ -> assert false

let histogram t ~name ?(labels = []) ?(slots = 1) () =
  let inst =
    register t ~name ~labels ~slots (fun n -> H (Array.init n (fun _ -> fresh_hcell ())))
  in
  want_kind `H inst;
  match inst.body with H h -> h | _ -> assert false

type histogram_summary = {
  count : int;
  sum : int;
  vmin : int;
  vmax : int;
  buckets : (int * int) list;
}

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of histogram_summary

type item = { name : string; labels : labels; value : value }

let summarize_h hs =
  let count = Histogram.count hs and sum = Histogram.sum hs in
  let vmin =
    Array.fold_left (fun acc c -> if c.hcount = 0 then acc else Stdlib.min acc c.hmin) max_int hs
  in
  let vmax =
    Array.fold_left (fun acc c -> if c.hcount = 0 then acc else Stdlib.max acc c.hmax) min_int hs
  in
  let buckets = ref [] in
  for b = nbuckets - 1 downto 0 do
    let occ = Array.fold_left (fun acc c -> acc + c.hbuckets.(b)) 0 hs in
    if occ > 0 then buckets := (b, occ) :: !buckets
  done;
  {
    count;
    sum;
    vmin = (if count = 0 then 0 else vmin);
    vmax = (if count = 0 then 0 else vmax);
    buckets = !buckets;
  }

let value_of inst =
  match inst.body with
  | C c -> Counter_v (Counter.value c)
  | G g ->
    let v = Gauge.value g in
    Gauge_v (if v = min_int then 0 else v)
  | H hs -> Histogram_v (summarize_h hs)

let compare_item a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else Stdlib.compare a.labels b.labels

let items t =
  Hashtbl.fold (fun _ inst acc ->
      { name = inst.iname; labels = inst.ilabels; value = value_of inst } :: acc)
    t.tbl []
  |> List.sort compare_item

let merge_into ~into sources =
  List.iter
    (fun src ->
      let insts = Hashtbl.fold (fun _ i acc -> i :: acc) src.tbl [] in
      let insts =
        List.sort
          (fun a b ->
            let c = String.compare a.iname b.iname in
            if c <> 0 then c else Stdlib.compare a.ilabels b.ilabels)
          insts
      in
      List.iter
        (fun inst ->
          match inst.body with
          | C c ->
            let dst = counter into ~name:inst.iname ~labels:inst.ilabels () in
            Counter.add dst (Counter.value c)
          | G g ->
            let dst = gauge into ~name:inst.iname ~labels:inst.ilabels () in
            let v = Gauge.value g in
            if v > Gauge.value dst then Gauge.set dst v
          | H hs ->
            let dst = histogram into ~name:inst.iname ~labels:inst.ilabels () in
            let d = dst.(0) in
            Array.iter
              (fun c ->
                if c.hcount > 0 then begin
                  if d.hcount = 0 then begin
                    d.hmin <- c.hmin;
                    d.hmax <- c.hmax
                  end
                  else begin
                    d.hmin <- Stdlib.min d.hmin c.hmin;
                    d.hmax <- Stdlib.max d.hmax c.hmax
                  end;
                  d.hcount <- d.hcount + c.hcount;
                  d.hsum <- d.hsum + c.hsum;
                  Array.iteri (fun b occ -> d.hbuckets.(b) <- d.hbuckets.(b) + occ) c.hbuckets
                end)
              hs)
        insts)
    sources
