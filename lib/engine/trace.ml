type kind = Compute | Communication | Synchronization | Api | Marker

type span = {
  lane : string;
  label : string;
  kind : kind;
  t0 : Time.t;
  t1 : Time.t;
}

type flow = {
  fid : int;
  flabel : string;
  f_src_lane : string;
  f_src_t : Time.t;
  f_dst_lane : string;
  f_dst_t : Time.t;
}

(* Spans live in one growable array in recording order. Flow arrows live
   in their own growable array: they are a v2 feature gated by [flows_on],
   so legacy span streams (and everything derived from them) are untouched
   when it is off. *)
type t = {
  mutable store : span array;
  mutable n : int;
  flows_on : bool;
  mutable fstore : flow array;
  mutable fn : int;
}

let create ?(flows = false) () = { store = [||]; n = 0; flows_on = flows; fstore = [||]; fn = 0 }

let flows_enabled = function Some t -> t.flows_on | None -> false

let add t ~lane ~label ~kind ~t0 ~t1 =
  if Time.(t1 < t0) then invalid_arg "Trace.add: span ends before it starts";
  let s = { lane; label; kind; t0; t1 } in
  let cap = Array.length t.store in
  if t.n = cap then begin
    let nstore = Array.make (Stdlib.max 64 (2 * cap)) s in
    Array.blit t.store 0 nstore 0 t.n;
    t.store <- nstore
  end;
  t.store.(t.n) <- s;
  t.n <- t.n + 1

let add_opt t ~lane ~label ~kind ~t0 ~t1 =
  match t with None -> () | Some t -> add t ~lane ~label ~kind ~t0 ~t1

let add_instant t ~lane ~label ~at = add t ~lane ~label ~kind:Marker ~t0:at ~t1:at

let add_instant_opt t ~lane ~label ~at =
  match t with None -> () | Some t -> add_instant t ~lane ~label ~at

let add_flow t ~id ~label ~src_lane ~src_t ~dst_lane ~dst_t =
  if t.flows_on then begin
    if Time.(dst_t < src_t) then invalid_arg "Trace.add_flow: arrow arrives before it departs";
    let f =
      { fid = id; flabel = label; f_src_lane = src_lane; f_src_t = src_t;
        f_dst_lane = dst_lane; f_dst_t = dst_t }
    in
    let cap = Array.length t.fstore in
    if t.fn = cap then begin
      let nstore = Array.make (Stdlib.max 16 (2 * cap)) f in
      Array.blit t.fstore 0 nstore 0 t.fn;
      t.fstore <- nstore
    end;
    t.fstore.(t.fn) <- f;
    t.fn <- t.fn + 1
  end

let add_flow_opt t ~id ~label ~src_lane ~src_t ~dst_lane ~dst_t =
  match t with
  | None -> ()
  | Some t -> add_flow t ~id ~label ~src_lane ~src_t ~dst_lane ~dst_t

let flows t =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (t.fstore.(i) :: acc) in
  collect (t.fn - 1) []

let compare_flow a b =
  let c = Time.compare a.f_src_t b.f_src_t in
  if c <> 0 then c
  else
    let c = Time.compare a.f_dst_t b.f_dst_t in
    if c <> 0 then c
    else
      let c = Int.compare a.fid b.fid in
      if c <> 0 then c
      else
        let c = String.compare a.flabel b.flabel in
        if c <> 0 then c
        else
          let c = String.compare a.f_src_lane b.f_src_lane in
          if c <> 0 then c else String.compare a.f_dst_lane b.f_dst_lane

let sorted_flows t = List.stable_sort compare_flow (flows t)

let spans t =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (t.store.(i) :: acc) in
  collect (t.n - 1) []

let rank_of_kind = function
  | Compute -> 0
  | Communication -> 1
  | Synchronization -> 2
  | Api -> 3
  | Marker -> 4

(* Canonical span order: by interval, then lane, label and kind. Recording
   order is a scheduling artifact, the canonical order is not. *)
let compare_span a b =
  let c = Time.compare a.t0 b.t0 in
  if c <> 0 then c
  else
    let c = Time.compare a.t1 b.t1 in
    if c <> 0 then c
    else
      let c = String.compare a.lane b.lane in
      if c <> 0 then c
      else
        let c = String.compare a.label b.label in
        if c <> 0 then c else Int.compare (rank_of_kind a.kind) (rank_of_kind b.kind)

let sorted_spans t = List.stable_sort compare_span (spans t)

let lanes t =
  let seen = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    Hashtbl.replace seen t.store.(i).lane ()
  done;
  List.sort String.compare (Hashtbl.fold (fun lane () acc -> lane :: acc) seen [])

let window t =
  if t.n = 0 then None
  else begin
    let lo = ref t.store.(0).t0 and hi = ref t.store.(0).t1 in
    for i = 1 to t.n - 1 do
      lo := Time.min !lo t.store.(i).t0;
      hi := Time.max !hi t.store.(i).t1
    done;
    Some (!lo, !hi)
  end

let char_of_kind = function
  | Compute -> '#'
  | Communication -> '='
  | Synchronization -> '|'
  | Api -> 'a'
  | Marker -> '!'

(* Every lane's row is filled in one pass over the store, so within a lane
   later spans overwrite earlier ones in a cell. *)
let render_ascii ?(width = 100) t =
  match window t with
  | None -> "(empty trace)"
  | Some (lo, hi) ->
    let total = Stdlib.max 1 (Time.to_ns (Time.sub hi lo)) in
    let cell_of_time time = Time.to_ns (Time.sub time lo) * width / total in
    let buf = Buffer.create 1024 in
    let lanes = lanes t in
    let label_width = List.fold_left (fun acc l -> Stdlib.max acc (String.length l)) 4 lanes in
    let rows = Hashtbl.create 16 in
    List.iter (fun lane -> Hashtbl.replace rows lane (Bytes.make width ' ')) lanes;
    for i = 0 to t.n - 1 do
      let s = t.store.(i) in
      let c0 = Stdlib.max 0 (Stdlib.min (width - 1) (cell_of_time s.t0)) in
      let c1 = Stdlib.max c0 (Stdlib.min (width - 1) (cell_of_time s.t1 - 1)) in
      Bytes.fill (Hashtbl.find rows s.lane) c0 (c1 - c0 + 1) (char_of_kind s.kind)
    done;
    Buffer.add_string buf
      (Printf.sprintf "timeline: %s .. %s  (1 cell = %s)\n" (Time.to_string lo)
         (Time.to_string hi)
         (Time.to_string (Time.ns (total / width))));
    List.iter
      (fun lane ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s [%s]\n" label_width lane (Bytes.to_string (Hashtbl.find rows lane))))
      lanes;
    Buffer.add_string buf "legend: # compute  = communication  | sync  a api-call\n";
    Buffer.contents buf
