(* Validates the Perfetto documents {!Cpufree_obs.Perfetto} writes: phase
   vocabulary, per-lane span monotonicity, and flow-arrow pairing, in one
   pass over the text. *)

module S = Json.Scan

(* The first occurrence of each member the checks read, as a shallow value:
   numbers as [Int]/[Float], strings as [String] (only "ph" keeps its
   text), anything else as [Null]. The checks only look at those three
   shapes, so this is what they would read off the parsed tree. *)
type event = {
  mutable name : Json.t option;
  mutable ph : Json.t option;
  mutable pid : Json.t option;
  mutable tid : Json.t option;
  mutable ts : Json.t option;
  mutable dur : Json.t option;
  mutable id : Json.t option;
}

let shallow c ~text =
  S.skip_ws c;
  match S.peek c with
  | '"' when text -> Json.String (S.string c)
  | '"' ->
    S.skip c;
    Json.String ""
  | '-' | '0' .. '9' -> S.number c
  | _ ->
    S.skip c;
    Json.Null

let read_member ev c key =
  let first = function None -> true | Some _ -> false in
  match key with
  | "name" when first ev.name -> ev.name <- Some (shallow c ~text:false)
  | "ph" when first ev.ph -> ev.ph <- Some (shallow c ~text:true)
  | "pid" when first ev.pid -> ev.pid <- Some (shallow c ~text:false)
  | "tid" when first ev.tid -> ev.tid <- Some (shallow c ~text:false)
  | "ts" when first ev.ts -> ev.ts <- Some (shallow c ~text:false)
  | "dur" when first ev.dur -> ev.dur <- Some (shallow c ~text:false)
  | "id" when first ev.id -> ev.id <- Some (shallow c ~text:false)
  | _ -> S.skip c

let num = function
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* The checks of one event, in order; the first failure is its error. *)
let check_event ~last_ts ~flows i ev =
  let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "traceEvents[%d] %s" i m)) fmt in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* () = match ev.name with Some (Json.String _) -> Ok () | _ -> err "has no string \"name\"" in
  let* pid = match ev.pid with Some (Json.Int p) -> Ok p | _ -> err "has no integer \"pid\"" in
  let tid = match ev.tid with Some (Json.Int t) -> Some t | _ -> None in
  let ts = num ev.ts in
  let need_tid () = match tid with Some t -> Ok t | None -> err "has no \"tid\"" in
  let need_ts () = match ts with Some t -> Ok t | None -> err "has no \"ts\"" in
  match ev.ph with
  | Some (Json.String "M") -> Ok ()
  | Some (Json.String "X") -> (
    let* tid = need_tid () in
    let* ts = need_ts () in
    let* () = if ts >= 0.0 then Ok () else err "has negative \"ts\"" in
    match num ev.dur with
    | Some d when d >= 0.0 ->
      let lane = (pid, tid) in
      let* () =
        match Hashtbl.find_opt last_ts lane with
        | Some prev when ts < prev ->
          err "breaks per-lane monotonicity (ts %g after %g on pid=%d tid=%d)" ts prev pid tid
        | Some _ | None -> Ok ()
      in
      Hashtbl.replace last_ts lane ts;
      Ok ()
    | Some _ -> err "has negative \"dur\""
    | None -> err "has no numeric \"dur\"")
  | Some (Json.String "i") ->
    let* _ = need_tid () in
    let* _ = need_ts () in
    Ok ()
  | Some (Json.String (("s" | "f") as ph)) -> (
    let* _ = need_tid () in
    let* ts = need_ts () in
    match ev.id with
    | Some (Json.Int id) ->
      let s, f, sts, fts =
        match Hashtbl.find_opt flows id with Some q -> q | None -> (0, 0, 0.0, 0.0)
      in
      if ph = "s" then Hashtbl.replace flows id (s + 1, f, ts, fts)
      else Hashtbl.replace flows id (s, f + 1, sts, ts);
      Ok ()
    | _ -> err "flow event has no integer \"id\"")
  | Some (Json.String "C") ->
    let* _ = need_ts () in
    Ok ()
  | Some (Json.String ph) -> err "has unexpected phase %S" ph
  | _ -> err "has no string \"ph\""

(* Flow pairing, once every event has passed: the first failing id in
   [Hashtbl.fold] order is the error. *)
let check_flows flows =
  Hashtbl.fold
    (fun id (s, f, sts, fts) acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if s <> 1 || f <> 1 then
          Error
            (Printf.sprintf
               "flow id %d has %d start(s) and %d finish(es) (want exactly one of each)" id s f)
        else if fts < sts then
          Error (Printf.sprintf "flow id %d finishes (%g) before it starts (%g)" id fts sts)
        else Ok ())
    flows (Ok ())

(* The trace events, checked until the first failure and only scanned after
   it, since a parse error further on still wins. *)
let check_events c =
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  (* flow id -> (starts seen, finishes seen, start ts, finish ts) *)
  let flows : (int, int * int * float * float) Hashtbl.t = Hashtbl.create 16 in
  let ev = { name = None; ph = None; pid = None; tid = None; ts = None; dur = None; id = None } in
  let failure = ref (Ok ()) in
  S.iter_array c (fun i ->
      S.skip_ws c;
      match !failure with
      | Error _ -> S.skip c
      | Ok () when S.peek c <> '{' ->
        S.skip c;
        failure := Error (Printf.sprintf "traceEvents[%d] is not an object" i)
      | Ok () ->
        ev.name <- None;
        ev.ph <- None;
        ev.pid <- None;
        ev.tid <- None;
        ev.ts <- None;
        ev.dur <- None;
        ev.id <- None;
        S.iter_object c (read_member ev c);
        failure := check_event ~last_ts ~flows i ev);
  match !failure with Error _ as e -> e | Ok () -> check_flows flows

let validate_string s =
  let checked =
    S.document s (fun c ->
        S.skip_ws c;
        if S.peek c <> '{' then begin
          S.skip c;
          Error "trace document is not an object"
        end
        else begin
          let events = ref None in
          S.iter_object c (fun key ->
              if key <> "traceEvents" || Option.is_some !events then S.skip c
              else begin
                S.skip_ws c;
                events :=
                  Some
                    (if S.peek c = '[' then check_events c
                     else begin
                       S.skip c;
                       Error "\"traceEvents\" is not a list"
                     end)
              end);
          match !events with Some r -> r | None -> Error "missing \"traceEvents\""
        end)
  in
  match checked with Ok r -> r | Error _ as e -> e
