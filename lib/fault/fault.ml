module E = Cpufree_engine
module Time = E.Time

type flap = { flap_period : Time.t; flap_duty : float; flap_mult : float }

type spec = {
  drop_prob : float;
  delay_prob : float;
  delay_ns : int;
  stragglers : (int * float) list;
  flap : flap option;
  nic_outages : (Time.t * Time.t) list;
  kills : (int * Time.t) list;
  link_fails : ((string * string) * Time.t) list;
  switch_fails : (string * Time.t) list;
  retry_timeout : Time.t;
  max_retries : int;
  backoff : float;
}

let none =
  {
    drop_prob = 0.0;
    delay_prob = 0.0;
    delay_ns = 0;
    stragglers = [];
    flap = None;
    nic_outages = [];
    kills = [];
    link_fails = [];
    switch_fails = [];
    retry_timeout = Time.us 25;
    max_retries = 6;
    backoff = 2.0;
  }

let has_failstop s = s.kills <> [] || s.link_fails <> [] || s.switch_fails <> []

let is_active s =
  s.drop_prob > 0.0 || s.delay_prob > 0.0
  || List.exists (fun (_, m) -> m <> 1.0) s.stragglers
  || s.flap <> None || s.nic_outages <> [] || has_failstop s

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let parse_float what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f && f >= 0.0 -> Ok f
  | Some _ | None -> Error (Printf.sprintf "%s: expected a non-negative number, got %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some i when i >= 0 -> Ok i
  | Some _ | None -> Error (Printf.sprintf "%s: expected a non-negative integer, got %S" what s)

let parse_prob what s =
  match parse_float what s with
  | Ok p when p <= 1.0 -> Ok p
  | Ok _ -> Error (Printf.sprintf "%s: probability %S exceeds 1" what s)
  | Error _ as e -> e

let ( let* ) = Result.bind

let split1 what ~on s =
  match String.index_opt s on with
  | Some i ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> Error (Printf.sprintf "%s: expected %S in %S" what (String.make 1 on) s)

let parse_clause acc clause =
  match String.index_opt clause '=' with
  | None when String.equal clause "none" -> Ok acc
  | None -> Error (Printf.sprintf "fault clause %S: expected KEY=VALUE" clause)
  | Some i ->
    let key = String.sub clause 0 i in
    let v = String.sub clause (i + 1) (String.length clause - i - 1) in
    (match key with
    | "drop" ->
      let* p = parse_prob "drop" v in
      Ok { acc with drop_prob = p }
    | "delay" ->
      let* p, ns = split1 "delay" ~on:'@' v in
      let* p = parse_prob "delay probability" p in
      let* ns = parse_int "delay ns" ns in
      Ok { acc with delay_prob = p; delay_ns = ns }
    | "straggler" ->
      let* g, m = split1 "straggler" ~on:'x' v in
      let* g = parse_int "straggler gpu" g in
      let* m = parse_float "straggler multiplier" m in
      if m < 1.0 then Error (Printf.sprintf "straggler multiplier %g is below 1" m)
      else Ok { acc with stragglers = acc.stragglers @ [ (g, m) ] }
    | "flap" ->
      let* period, rest = split1 "flap" ~on:'@' v in
      let* duty, mult = split1 "flap" ~on:'x' rest in
      let* period = parse_float "flap period (us)" period in
      let* duty = parse_prob "flap duty" duty in
      let* mult = parse_float "flap multiplier" mult in
      if mult < 1.0 then Error (Printf.sprintf "flap multiplier %g is below 1" mult)
      else if period <= 0.0 then Error "flap period must be positive"
      else
        Ok
          {
            acc with
            flap =
              Some
                {
                  flap_period = Time.of_ns_float (period *. 1e3);
                  flap_duty = duty;
                  flap_mult = mult;
                };
          }
    | "nic" ->
      let* start, dur = split1 "nic" ~on:'+' v in
      let* start = parse_float "nic outage start (us)" start in
      let* dur = parse_float "nic outage duration (us)" dur in
      Ok
        {
          acc with
          nic_outages =
            acc.nic_outages
            @ [ (Time.of_ns_float (start *. 1e3), Time.of_ns_float (dur *. 1e3)) ];
        }
    | "kill" ->
      let* g, t = split1 "kill" ~on:'@' v in
      let* g = parse_int "kill gpu" g in
      let* t = parse_float "kill time (us)" t in
      Ok { acc with kills = acc.kills @ [ (g, Time.of_ns_float (t *. 1e3)) ] }
    | "linkfail" ->
      let* ep, t = split1 "linkfail" ~on:'@' v in
      let* src, dst = split1 "linkfail" ~on:'-' ep in
      let* t = parse_float "linkfail time (us)" t in
      if String.equal src "" || String.equal dst "" then
        Error (Printf.sprintf "linkfail: expected SRC-DST vertex names, got %S" ep)
      else
        Ok
          { acc with link_fails = acc.link_fails @ [ ((src, dst), Time.of_ns_float (t *. 1e3)) ] }
    | "switchfail" ->
      let* name, t = split1 "switchfail" ~on:'@' v in
      let* t = parse_float "switchfail time (us)" t in
      if String.equal name "" then Error "switchfail: expected a switch vertex name"
      else Ok { acc with switch_fails = acc.switch_fails @ [ (name, Time.of_ns_float (t *. 1e3)) ] }
    | "retry" ->
      let* timeout, n = split1 "retry" ~on:'x' v in
      let* timeout = parse_float "retry timeout (us)" timeout in
      let* n = parse_int "retry count" n in
      if timeout <= 0.0 then Error "retry timeout must be positive"
      else Ok { acc with retry_timeout = Time.of_ns_float (timeout *. 1e3); max_retries = n }
    | "backoff" ->
      let* b = parse_float "backoff" v in
      if b < 1.0 then Error (Printf.sprintf "backoff %g is below 1" b)
      else Ok { acc with backoff = b }
    | other ->
      Error
        (Printf.sprintf
           "unknown fault clause %S; known clauses: drop=P; delay=P@NS; straggler=GxM; \
            flap=PERIOD_US@DUTYxM; nic=START_US+DUR_US; kill=GPU@T_US; linkfail=SRC-DST@T_US; \
            switchfail=NAME@T_US; retry=TIMEOUT_USxN; backoff=F; none"
           other))

let of_string s =
  (* Clauses separate on ';' or ',' — commas are friendlier inside shell
     command lines, semicolons match {!to_string}. *)
  let s = String.map (fun c -> if c = ',' then ';' else c) s in
  let clauses =
    String.split_on_char ';' (String.lowercase_ascii (String.trim s))
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  match clauses with
  | [] -> Error "empty fault spec (use \"none\" for no faults)"
  | clauses -> List.fold_left (fun acc c -> Result.bind acc (fun a -> parse_clause a c)) (Ok none) clauses

let to_string s =
  let b = Stdlib.Buffer.create 64 in
  let sep () = if Stdlib.Buffer.length b > 0 then Stdlib.Buffer.add_char b ';' in
  let addf fmt = Printf.ksprintf (fun str -> sep (); Stdlib.Buffer.add_string b str) fmt in
  if s.drop_prob > 0.0 then addf "drop=%g" s.drop_prob;
  if s.delay_prob > 0.0 then addf "delay=%g@%d" s.delay_prob s.delay_ns;
  List.iter (fun (g, m) -> addf "straggler=%dx%g" g m) s.stragglers;
  (match s.flap with
  | Some f ->
    addf "flap=%g@%gx%g" (Time.to_us_float f.flap_period) f.flap_duty f.flap_mult
  | None -> ());
  List.iter
    (fun (start, dur) -> addf "nic=%g+%g" (Time.to_us_float start) (Time.to_us_float dur))
    s.nic_outages;
  List.iter (fun (g, t) -> addf "kill=%d@%g" g (Time.to_us_float t)) s.kills;
  List.iter
    (fun ((a, b), t) -> addf "linkfail=%s-%s@%g" a b (Time.to_us_float t))
    s.link_fails;
  List.iter (fun (n, t) -> addf "switchfail=%s@%g" n (Time.to_us_float t)) s.switch_fails;
  addf "retry=%gx%d" (Time.to_us_float s.retry_timeout) s.max_retries;
  addf "backoff=%g" s.backoff;
  if Stdlib.Buffer.length b = 0 then "none" else Stdlib.Buffer.contents b

let preset ~intensity =
  if intensity <= 0.0 then none
  else
    {
      none with
      drop_prob = Float.min 0.5 (0.01 *. intensity);
      delay_prob = Float.min 0.9 (0.08 *. intensity);
      delay_ns = int_of_float (1500.0 +. (1000.0 *. intensity));
      stragglers = [ (1, 1.0 +. (0.25 *. intensity)) ];
      flap =
        Some
          {
            flap_period = Time.us 40;
            flap_duty = Float.min 0.5 (0.15 *. intensity);
            flap_mult = 1.0 +. intensity;
          };
    }

(* Full retry budget: timeout * (backoff^0 + ... + backoff^max_retries),
   i.e. the longest a resilient waiter can legitimately spend pacing
   retries before it either recovers or raises its own stall. *)
let retry_budget s =
  let rec go acc timeout k =
    if k > s.max_retries then acc
    else go (Time.add acc timeout) (Time.scale timeout s.backoff) (k + 1)
  in
  go Time.zero s.retry_timeout 0

let default_watchdog s = Time.max (Time.ms 10) (Time.scale (retry_budget s) 4.0)

(* ------------------------------------------------------------------ *)
(* Fail-stop schedule queries                                          *)
(* ------------------------------------------------------------------ *)

(* Fail-stop deaths are part of the spec, not the seeded plan: they are
   scheduled at fixed virtual times, so every query below is a pure
   function of (spec, now). *)

let dead s ~pe ~now =
  List.exists (fun (g, t) -> g = pe && Time.(t <= now)) s.kills

let killed_by s ~now =
  let due = List.filter (fun (_, t) -> Time.(t <= now)) s.kills in
  let earliest =
    List.fold_left
      (fun acc (g, t) ->
        match List.assoc_opt g acc with
        | Some t' when Time.(t' <= t) -> acc
        | _ -> (g, t) :: List.remove_assoc g acc)
      [] due
  in
  List.sort (fun (a, _) (b, _) -> compare a b) earliest

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type stats = { dropped : int; delayed : int; resent : int; retried : int }
type recovery_stats = { kills_detected : int }

exception Killed of { pe : int; at : Time.t }

type plan = {
  spec : spec;
  seed : int;
  scales : float array;  (* per-GPU compute multiplier *)
  streams : E.Rng.t array;  (* per-PE delivery-fate streams *)
  flap_phase : int;  (* fixed phase offset of the flap pattern, ns *)
  lost : (string, ((unit -> unit) -> unit) list) Hashtbl.t;  (* key -> newest-first *)
  mutable n_lost : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable resent : int;
  mutable retried : int;
  mutable dead : int list;  (* PEs whose death was diagnosed, unordered *)
}

let activate spec ~seed ~gpus =
  if gpus <= 0 then invalid_arg "Fault.activate: need at least one GPU";
  let root = E.Rng.create (0x6661756c74 lxor seed) in
  let scales = Array.make gpus 1.0 in
  List.iter
    (fun (g, m) -> if g >= 0 && g < gpus then scales.(g) <- scales.(g) *. m)
    spec.stragglers;
  let streams = Array.init gpus (fun _ -> E.Rng.split root) in
  let flap_phase =
    match spec.flap with
    | Some f -> E.Rng.int root (Stdlib.max 1 (Time.to_ns f.flap_period))
    | None -> 0
  in
  {
    spec;
    seed;
    scales;
    streams;
    flap_phase;
    lost = Hashtbl.create 16;
    n_lost = 0;
    dropped = 0;
    delayed = 0;
    resent = 0;
    retried = 0;
    dead = [];
  }

let spec_of p = p.spec

type fate = Deliver | Delayed of Time.t | Dropped

let delivery_fate p ~from_pe =
  if from_pe < 0 || from_pe >= Array.length p.streams then
    invalid_arg (Printf.sprintf "Fault.delivery_fate: no such PE %d" from_pe);
  let rng = p.streams.(from_pe) in
  (* Fixed draw count per call: the stream position depends only on how
     many deliveries this PE has issued, never on earlier outcomes. *)
  let u = E.Rng.float rng 1.0 in
  let v = E.Rng.float rng 1.0 in
  let j = E.Rng.float rng 1.0 in
  if u < p.spec.drop_prob then begin
    p.dropped <- p.dropped + 1;
    Dropped
  end
  else if v < p.spec.delay_prob then begin
    p.delayed <- p.delayed + 1;
    Delayed (Time.of_ns_float (float_of_int p.spec.delay_ns *. (0.5 +. j)))
  end
  else Deliver

let compute_scale p ~gpu =
  if gpu < 0 || gpu >= Array.length p.scales then 1.0 else p.scales.(gpu)

let fabric_penalty p ~now ~inter_node =
  let mult =
    match p.spec.flap with
    | Some f ->
      let period = Stdlib.max 1 (Time.to_ns f.flap_period) in
      let phase = (Time.to_ns now + p.flap_phase) mod period in
      if float_of_int phase < f.flap_duty *. float_of_int period then f.flap_mult else 1.0
    | None -> 1.0
  in
  let extra =
    if not inter_node then Time.zero
    else
      List.fold_left
        (fun acc (start, dur) ->
          let stop = Time.add start dur in
          if Time.(now >= start) && Time.(now < stop) then Time.max acc (Time.sub stop now)
          else acc)
        Time.zero p.spec.nic_outages
  in
  (extra, mult)

let record_lost p ~key resend =
  let prev = Option.value ~default:[] (Hashtbl.find_opt p.lost key) in
  Hashtbl.replace p.lost key (resend :: prev);
  p.n_lost <- p.n_lost + 1

let recover_lost p ~key =
  match Hashtbl.find_opt p.lost key with
  | None -> []
  | Some l ->
    Hashtbl.remove p.lost key;
    p.n_lost <- p.n_lost - List.length l;
    List.rev l

let lost_count p = p.n_lost

let stats p = { dropped = p.dropped; delayed = p.delayed; resent = p.resent; retried = p.retried }
let note_retry p = p.retried <- p.retried + 1
let note_resent p n = p.resent <- p.resent + n

(* ------------------------------------------------------------------ *)
(* Obituary registry and recovery accounting                           *)
(* ------------------------------------------------------------------ *)

let note_obituary p ~pe = if not (List.mem pe p.dead) then p.dead <- pe :: p.dead
let recovery p = { kills_detected = List.length p.dead }
