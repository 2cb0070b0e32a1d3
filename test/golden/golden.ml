(* Extract golden figures from a BENCH_results.json document.

   Usage: golden.exe BENCH_results.json OUT...

   Each OUT is named <figure>.<tag>.json (e.g. fig6.1.small.default.json)
   and receives that figure's JSON, ready to be diffed against
   test/golden/<figure>.json. The bench writes simulated values only, so
   the figure is copied as it is. *)

module J = Cpufree_core.Json

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
        | [ f ] -> Out_channel.with_open_bin out (fun oc -> J.to_channel oc f)
        | l -> fail "%s: expected one figure %S, found %d" src figure (List.length l))
      outs
  | _ -> fail "usage: golden.exe BENCH_results.json <figure>.<tag>.json..."
