module Metrics = Cpufree_obs.Metrics

let schema_version = 1

let item_json (it : Metrics.item) =
  let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) it.Metrics.labels) in
  let base = [ ("name", Json.String it.Metrics.name); ("labels", labels) ] in
  Json.Obj
    (match it.Metrics.value with
    | Metrics.Counter_v v -> base @ [ ("kind", Json.String "counter"); ("value", Json.Int v) ]
    | Metrics.Gauge_v v -> base @ [ ("kind", Json.String "gauge"); ("value", Json.Int v) ]
    | Metrics.Histogram_v h ->
      base
      @ [
          ("kind", Json.String "histogram");
          ("count", Json.Int h.Metrics.count);
          ("sum", Json.Int h.Metrics.sum);
          ("min", Json.Int h.Metrics.vmin);
          ("max", Json.Int h.Metrics.vmax);
          ( "buckets",
            Json.List
              (List.map
                 (fun (b, occ) -> Json.List [ Json.Int b; Json.Int occ ])
                 h.Metrics.buckets) );
        ])

let to_json reg =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("metrics", Json.List (List.map item_json (Metrics.items reg)));
    ]

(* Structural schema check, mirroring {!Machine_json.validate}: consumers can
   rely on every emitted document carrying these fields with these shapes. *)
let validate doc =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* kvs =
    match doc with Json.Obj kvs -> Ok kvs | _ -> err "metrics document is not an object"
  in
  let* () =
    match List.assoc_opt "schema_version" kvs with
    | Some (Json.Int v) when v = schema_version -> Ok ()
    | Some (Json.Int v) -> err "unsupported schema_version %d" v
    | Some _ -> err "\"schema_version\" is not an integer"
    | None -> err "missing \"schema_version\""
  in
  let* ms =
    match List.assoc_opt "metrics" kvs with
    | Some (Json.List ms) -> Ok ms
    | Some _ -> err "\"metrics\" is not a list"
    | None -> err "missing \"metrics\""
  in
  let check_item i m =
    let what = Printf.sprintf "metrics[%d]" i in
    let* kvs = match m with Json.Obj kvs -> Ok kvs | _ -> err "%s is not an object" what in
    let* () =
      match List.assoc_opt "name" kvs with
      | Some (Json.String _) -> Ok ()
      | _ -> err "%s has no string \"name\"" what
    in
    let* () =
      match List.assoc_opt "labels" kvs with
      | Some (Json.Obj ls) ->
        if List.for_all (fun (_, v) -> match v with Json.String _ -> true | _ -> false) ls then
          Ok ()
        else err "%s has a non-string label value" what
      | _ -> err "%s has no \"labels\" object" what
    in
    let int_field f =
      match List.assoc_opt f kvs with
      | Some (Json.Int _) -> Ok ()
      | _ -> err "%s has no integer %S" what f
    in
    match List.assoc_opt "kind" kvs with
    | Some (Json.String ("counter" | "gauge")) -> int_field "value"
    | Some (Json.String "histogram") ->
      let* () = int_field "count" in
      let* () = int_field "sum" in
      let* () = int_field "min" in
      let* () = int_field "max" in
      (match List.assoc_opt "buckets" kvs with
      | Some (Json.List bs) ->
        if
          List.for_all
            (function Json.List [ Json.Int _; Json.Int occ ] -> occ > 0 | _ -> false)
            bs
        then Ok ()
        else err "%s has a malformed bucket" what
      | _ -> err "%s has no \"buckets\" list" what)
    | Some (Json.String k) -> err "%s has unknown kind %S" what k
    | _ -> err "%s has no string \"kind\"" what
  in
  let rec go i = function
    | [] -> Ok ()
    | m :: rest ->
      let* () = check_item i m in
      go (i + 1) rest
  in
  go 0 ms
