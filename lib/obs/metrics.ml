type labels = (string * string) list

let nbuckets = 64

type hcell = {
  mutable hcount : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
  hbuckets : int array;
}

type body =
  | C of int ref
  | G of int ref
  | H of hcell

type instrument = { iname : string; ilabels : labels; body : body }

(* Key instruments by name plus sorted labels rendered to one string, so
   lookup needs no polymorphic list hashing. *)
type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

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

let register t ~name ~labels make_body =
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some inst -> inst
  | None ->
    let inst = { iname = name; ilabels = labels; body = make_body () } in
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
  type h = int ref

  let add c v =
    if v < 0 then invalid_arg "Metrics.Counter.add: negative amount";
    c := !c + v

  let incr c = add c 1
  let value c = !c
end

module Gauge = struct
  type h = int ref

  let set g v = g := v
  let value g = !g
end

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    Stdlib.min (nbuckets - 1) (go 0 v)
  end

module Histogram = struct
  type h = hcell

  let observe c v =
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

  let count c = c.hcount
  let sum c = c.hsum
end

let counter t ~name ?(labels = []) () =
  let inst = register t ~name ~labels (fun () -> C (ref 0)) in
  want_kind `C inst;
  match inst.body with C c -> c | _ -> assert false

let gauge t ~name ?(labels = []) () =
  let inst = register t ~name ~labels (fun () -> G (ref min_int)) in
  want_kind `G inst;
  match inst.body with G g -> g | _ -> assert false

let histogram t ~name ?(labels = []) () =
  let inst = register t ~name ~labels (fun () -> H (fresh_hcell ())) in
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

let summarize_h c =
  let buckets = ref [] in
  for b = nbuckets - 1 downto 0 do
    let occ = c.hbuckets.(b) in
    if occ > 0 then buckets := (b, occ) :: !buckets
  done;
  { count = c.hcount; sum = c.hsum; vmin = c.hmin; vmax = c.hmax; buckets = !buckets }

let value_of inst =
  match inst.body with
  | C c -> Counter_v (Counter.value c)
  | G g ->
    let v = Gauge.value g in
    Gauge_v (if v = min_int then 0 else v)
  | H c -> Histogram_v (summarize_h c)

let compare_item a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else Stdlib.compare a.labels b.labels

let items t =
  Hashtbl.fold (fun _ inst acc ->
      { name = inst.iname; labels = inst.ilabels; value = value_of inst } :: acc)
    t.tbl []
  |> List.sort compare_item
