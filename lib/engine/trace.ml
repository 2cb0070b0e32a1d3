type kind = Compute | Communication | Synchronization | Api | Idle | Marker

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

(* Growable vector of span indices: the per-lane index of [t.store]. *)
type lane_idx = { mutable idx : int array; mutable len : int }

(* Spans live in one growable array in recording order; a hashtable maps
   each lane to the store indices of its spans so per-lane queries
   ([busy_time], one timeline row of [render_ascii]) touch only that lane's
   spans instead of rescanning the whole trace. The window is maintained
   incrementally on [add]. Flow arrows live in their own growable array:
   they are a v2 feature gated by [flows_on], so legacy span streams (and
   everything derived from them) are untouched when it is off. *)
type t = {
  mutable store : span array;
  mutable n : int;
  by_lane : (string, lane_idx) Hashtbl.t;
  mutable lo : Time.t;
  mutable hi : Time.t;
  flows_on : bool;
  mutable fstore : flow array;
  mutable fn : int;
}

let create ?(flows = false) () =
  {
    store = [||];
    n = 0;
    by_lane = Hashtbl.create 16;
    lo = Time.zero;
    hi = Time.zero;
    flows_on = flows;
    fstore = [||];
    fn = 0;
  }

let enabled = function Some _ -> true | None -> false
let flows_enabled = function Some t -> t.flows_on | None -> false

let lane_push li i =
  let cap = Array.length li.idx in
  if li.len = cap then begin
    let nidx = Array.make (Stdlib.max 8 (2 * cap)) 0 in
    Array.blit li.idx 0 nidx 0 li.len;
    li.idx <- nidx
  end;
  li.idx.(li.len) <- i;
  li.len <- li.len + 1

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
  let li =
    match Hashtbl.find_opt t.by_lane lane with
    | Some li -> li
    | None ->
      let li = { idx = [||]; len = 0 } in
      Hashtbl.replace t.by_lane lane li;
      li
  in
  lane_push li t.n;
  if t.n = 0 then begin
    t.lo <- t0;
    t.hi <- t1
  end
  else begin
    t.lo <- Time.min t.lo t0;
    t.hi <- Time.max t.hi t1
  end;
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
  | Idle -> 4
  | Marker -> 5

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

let merge_into ~into sources =
  let all = List.concat_map spans sources in
  List.iter
    (fun s -> add into ~lane:s.lane ~label:s.label ~kind:s.kind ~t0:s.t0 ~t1:s.t1)
    (List.stable_sort compare_span all);
  let all_flows = List.concat_map flows sources in
  List.iter
    (fun f ->
      add_flow into ~id:f.fid ~label:f.flabel ~src_lane:f.f_src_lane ~src_t:f.f_src_t
        ~dst_lane:f.f_dst_lane ~dst_t:f.f_dst_t)
    (List.stable_sort compare_flow all_flows)

let iter_lane t lane f =
  match Hashtbl.find_opt t.by_lane lane with
  | None -> ()
  | Some li ->
    for k = 0 to li.len - 1 do
      f t.store.(li.idx.(k))
    done

let lanes t =
  List.sort String.compare (Hashtbl.fold (fun lane _ acc -> lane :: acc) t.by_lane [])

let busy_time t ~lane =
  let acc = ref Time.zero in
  iter_lane t lane (fun s -> acc := Time.add !acc (Time.sub s.t1 s.t0));
  !acc

let busy_time_merged t ~lane =
  let acc = ref [] in
  iter_lane t lane (fun s -> acc := (s.t0, s.t1) :: !acc);
  Intervals.covered !acc

let busy_time_kind t ~kind =
  let acc = ref Time.zero in
  for i = 0 to t.n - 1 do
    let s = t.store.(i) in
    if s.kind = kind then acc := Time.add !acc (Time.sub s.t1 s.t0)
  done;
  !acc

let window t = if t.n = 0 then None else Some (t.lo, t.hi)

let char_of_kind = function
  | Compute -> '#'
  | Communication -> '='
  | Synchronization -> '|'
  | Api -> 'a'
  | Idle -> '.'
  | Marker -> '!'

(* Later spans overwrite earlier ones in a cell; kinds other than Idle win
   over Idle so a busy instant is never hidden by background idling. *)
let render_ascii ?(width = 100) t =
  match window t with
  | None -> "(empty trace)"
  | Some (lo, hi) ->
    let total = Stdlib.max 1 (Time.to_ns (Time.sub hi lo)) in
    let cell_of_time time = Time.to_ns (Time.sub time lo) * width / total in
    let buf = Buffer.create 1024 in
    let label_width =
      List.fold_left (fun acc l -> Stdlib.max acc (String.length l)) 4 (lanes t)
    in
    Buffer.add_string buf
      (Printf.sprintf "timeline: %s .. %s  (1 cell = %s)\n" (Time.to_string lo)
         (Time.to_string hi)
         (Time.to_string (Time.ns (total / width))));
    List.iter
      (fun lane ->
        let row = Bytes.make width ' ' in
        iter_lane t lane (fun s ->
            let c0 = Stdlib.max 0 (Stdlib.min (width - 1) (cell_of_time s.t0)) in
            let c1 = Stdlib.max c0 (Stdlib.min (width - 1) (cell_of_time s.t1 - 1)) in
            let ch = char_of_kind s.kind in
            for c = c0 to c1 do
              if s.kind <> Idle || Bytes.get row c = ' ' then Bytes.set row c ch
            done);
        Buffer.add_string buf (Printf.sprintf "%-*s [%s]\n" label_width lane (Bytes.to_string row)))
      (lanes t);
    Buffer.add_string buf "legend: # compute  = communication  | sync  a api-call  . idle\n";
    Buffer.contents buf

let string_of_kind = function
  | Compute -> "compute"
  | Communication -> "communication"
  | Synchronization -> "synchronization"
  | Api -> "api"
  | Idle -> "idle"
  | Marker -> "marker"

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "lane,label,kind,start_ns,end_ns\n";
  for i = 0 to t.n - 1 do
    let s = t.store.(i) in
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%d,%d\n" s.lane s.label (string_of_kind s.kind)
         (Time.to_ns s.t0) (Time.to_ns s.t1))
  done;
  Buffer.contents buf

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let lane_ids = Hashtbl.create 16 in
  let lane_id lane =
    match Hashtbl.find_opt lane_ids lane with
    | Some id -> id
    | None ->
      let id = Hashtbl.length lane_ids in
      Hashtbl.replace lane_ids lane id;
      id
  in
  (* Assign ids in sorted-lane order for a stable layout. *)
  List.iter (fun lane -> ignore (lane_id lane)) (lanes t);
  Buffer.add_string buf "[";
  for i = 0 to t.n - 1 do
    let s = t.store.(i) in
    if i > 0 then Buffer.add_string buf ",";
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d}"
         s.label (string_of_kind s.kind)
         (Time.to_us_float s.t0)
         (Time.to_us_float (Time.sub s.t1 s.t0))
         (lane_id s.lane))
  done;
  (* Thread-name metadata rows. *)
  Hashtbl.iter
    (fun lane id ->
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           id lane))
    lane_ids;
  Buffer.add_string buf "]";
  Buffer.contents buf

let clear t =
  t.store <- [||];
  t.n <- 0;
  Hashtbl.reset t.by_lane;
  t.lo <- Time.zero;
  t.hi <- Time.zero;
  t.fstore <- [||];
  t.fn <- 0
