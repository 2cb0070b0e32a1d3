(* Output check: every simulated field an operation returns is folded into
   one hash per operation, and compared with the hash recorded in
   [expected.tsv] for the operation's key. The hashes of a round, in
   order, fold into one digest per workload, recorded for the default
   seed. Simulated results are deterministic, so any difference is a
   changed model or a bug. *)

module Measure = Cpufree_core.Measure
module Time = Cpufree_engine.Time
module P = Cpufree_serve.Protocol

let md5 s = Digest.to_hex (Digest.string s)

let result_fields (r : Measure.result) =
  Printf.sprintf "label=%s gpus=%d iters=%d total=%d per_iter=%d comm=%d overlap=%h bytes=%d"
    r.Measure.label r.Measure.gpus r.Measure.iterations (Time.to_ns r.Measure.total)
    (Time.to_ns r.Measure.per_iter) (Time.to_ns r.Measure.comm) r.Measure.overlap
    r.Measure.bytes_moved

let chaos_fields (c : P.chaos_summary) =
  Printf.sprintf "completed=%b trigger=%s dropped=%d delayed=%d resent=%d retried=%d"
    c.P.completed (Option.value ~default:"-" c.P.trigger) c.P.dropped c.P.delayed c.P.resent
    c.P.retried

let payload_fields (p : P.run_payload) =
  Printf.sprintf
    "label=%s gpus=%d iters=%d total=%d per_iter=%d comm=%d overlap=%h bytes=%d chaos=%s \
     metrics=%s trace=%s"
    p.P.label p.P.gpus p.P.iterations p.P.total_ns p.P.per_iter_ns p.P.comm_ns p.P.overlap
    p.P.bytes_moved
    (match p.P.chaos with None -> "none" | Some c -> chaos_fields c)
    (match p.P.metrics with None -> "none" | Some m -> md5 m)
    (match p.P.trace with None -> "none" | Some t -> md5 t)

(* --- the recorded table ------------------------------------------------------ *)

type expected = { events : int; output : string }

type table = {
  outputs : (string, expected) Hashtbl.t;  (** md5 of the op key -> expected *)
  digests : (string * int, string) Hashtbl.t;  (** (workload, seed) -> digest *)
}

let path = "perfbench/expected.tsv"
let default_seed = 1

let load ?(path = path) () =
  let t = { outputs = Hashtbl.create 1024; digests = Hashtbl.create 8 } in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ "op"; k; ev; out ] -> Hashtbl.replace t.outputs k { events = int_of_string ev; output = out }
          | [ "digest"; w; seed; d ] -> Hashtbl.replace t.digests (w, int_of_string seed) d
          | l :: _ when String.length l = 0 || l.[0] = '#' -> ()
          | _ -> failwith ("malformed line in " ^ path)
        done
      with End_of_file -> ());
  t

let save ~ops ~digests =
  let oc = open_out path in
  output_string oc
    "# Expected simulated outputs, written by `perfbench/main.exe record`.\n\
     # op <md5 of op key> <engine events> <md5 of every simulated output field>\n\
     # digest <workload> <seed> <md5 of one round's output hashes, in order>\n";
  List.iter (fun (k, e) -> Printf.fprintf oc "op\t%s\t%d\t%s\n" (md5 k) e.events e.output) ops;
  List.iter (fun (w, seed, d) -> Printf.fprintf oc "digest\t%s\t%d\t%s\n" w seed d) digests;
  close_out oc

let expected table key = Hashtbl.find_opt table.outputs (md5 key)

(* [Ok events] when the op's output hash matches the recorded one. *)
let verify table ~key ~output =
  match expected table key with
  | None -> Error ("no recorded output for " ^ key)
  | Some e when e.output = output -> Ok e.events
  | Some _ -> Error ("output differs from the recorded one for " ^ key)

let round_digest hashes = md5 (String.concat "\n" hashes)

let verify_digest table ~workload ~seed digest =
  match Hashtbl.find_opt table.digests (workload, seed) with
  | None -> Ok ()
  | Some d when d = digest -> Ok ()
  | Some d -> Error (Printf.sprintf "%s digest %s, recorded %s" workload digest d)

(* The [engine.events] counter of a metrics.json artifact (0 if absent). *)
let events_of_metrics doc =
  let module J = Cpufree_core.Json in
  match J.of_string doc with
  | Ok d -> (
    match J.member "metrics" d with
    | Some (J.List items) ->
      List.fold_left
        (fun acc it ->
          match (J.member "name" it, J.member "value" it) with
          | Some (J.String "engine.events"), Some (J.Int n) -> acc + n
          | _ -> acc)
        0 items
    | _ -> 0)
  | Error _ -> 0
