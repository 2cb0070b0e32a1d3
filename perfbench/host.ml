(* Host-side facts and statistics shared by the workloads. *)

let now = Unix.gettimeofday

(* VmHWM (peak resident set) of a process, in MB; [pid] defaults to self. *)
let peak_rss_mb ?pid () =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Nearest-rank percentile of an unsorted sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

let median xs = percentile (Array.of_list xs) 0.5

(* Samples that lie above the nearest-rank 90th percentile of [n]. A run
   takes at least [p90_samples], so that at least 10 do. *)
let beyond_p90 n = n - int_of_float (ceil (0.9 *. float_of_int n))
let p90_samples = 100

let env_or_unset name = Option.value ~default:"unset" (Sys.getenv_opt name)

(* The recorded facts about the host and build, in every result file. *)
let facts ~commit ~seed =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("CPUFREE_JOBS", env_or_unset "CPUFREE_JOBS");
    ("CPUFREE_PDES", env_or_unset "CPUFREE_PDES");
    ("commit", commit);
    ("seed", string_of_int seed);
  ]
