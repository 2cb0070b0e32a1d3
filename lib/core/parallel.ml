(* Domain pool for fanning independent scenarios across host cores.

   Every benchmark scenario owns its own [Engine.t] and shares nothing, so
   the sweep is embarrassingly parallel: a fixed-size pool of [Domain.t]
   workers self-schedules work items by stealing the next un-claimed index
   from a shared atomic cursor (one-item granularity keeps long scenarios
   from serializing behind short ones). Results land in a pre-sized slot
   array at their input index, so the output order is deterministic and
   identical to the sequential [List.map] regardless of worker count or
   scheduling. *)

let default_jobs () =
  match Sys.getenv_opt "CPUFREE_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "CPUFREE_JOBS: expected a positive integer, got %S" s))
  | None -> Domain.recommended_domain_count ()

let map ?jobs f xs =
  let jobs = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
  let input = Array.of_list xs in
  let n = Array.length input in
  let jobs = Stdlib.min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec steal () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (match f input.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (* Keep the lowest-index failure so the raised error is
               deterministic; later workers' failures are dropped. *)
            let rec record () =
              match Atomic.get first_error with
              | Some (j, _, _) when j < i -> ()
              | cur -> if not (Atomic.compare_and_set first_error cur (Some (i, e, bt))) then record ()
            in
            record ());
          steal ()
        end
      in
      steal ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    match Atomic.get first_error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) results)
  end
