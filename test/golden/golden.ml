(* Extract golden figures from a BENCH_results.json document.

   Usage: golden.exe BENCH_results.json OUT...

   Each OUT is named <figure>.<tag>.json (e.g. fig6.1.small.windowed.json)
   and receives that figure's JSON with the host-time keys removed, ready to
   be diffed against test/golden/<figure>.json. *)

module J = Cpufree_core.Json

(* Host wall-clock and pool size: the only fields that vary between runs of
   a simulated figure. *)
let host_time_keys = [ "wall_clock_sec"; "jobs" ]

let rec strip = function
  | J.Obj kvs ->
    J.Obj
      (List.filter_map
         (fun (k, v) -> if List.mem k host_time_keys then None else Some (k, strip v))
         kvs)
  | J.List l -> J.List (List.map strip l)
  | v -> v

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("golden: " ^ s); exit 1) fmt

let () =
  match Array.to_list Sys.argv with
  | _ :: src :: outs ->
    let figures =
      match J.of_string (In_channel.with_open_bin src In_channel.input_all) with
      | Ok doc -> (match J.member "figures" doc with Some (J.List l) -> l | _ -> [])
      | Error e -> fail "%s: %s" src e
    in
    List.iter
      (fun out ->
        let figure = Filename.(remove_extension (remove_extension (basename out))) in
        match List.filter (fun f -> J.member "figure" f = Some (J.String figure)) figures with
        | [ f ] -> Out_channel.with_open_bin out (fun oc -> J.to_channel oc (strip f))
        | l -> fail "%s: expected one figure %S, found %d" src figure (List.length l))
      outs
  | _ -> fail "usage: golden.exe BENCH_results.json <figure>.<tag>.json..."
