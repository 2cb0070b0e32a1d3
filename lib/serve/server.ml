module Scenario = Cpufree_core.Scenario
module Parallel = Cpufree_core.Parallel
module P = Protocol
module J = Cpufree_core.Json

type config = {
  socket_path : string;
  cache_capacity : int;
  max_queue : int;
  jobs : int;
  selfcheck : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    cache_capacity = 128;
    max_queue = 64;
    jobs = Parallel.default_jobs ();
    selfcheck = Sys.getenv_opt "CPUFREE_SERVE_SELFCHECK" <> None;
  }

(* One client connection. [pending] counts admitted runs whose response has
   not been written yet; the file descriptor is only closed once the reader
   saw EOF *and* pending work drained, so the worker can never write into a
   recycled descriptor number. *)
type conn = {
  fd : Unix.file_descr;
  buf : P.Framebuf.t;
  mutable pending : int;
  mutable eof : bool;
  mutable closed : bool;
}

type job = { j_id : int; j_digest : string; j_scenario : Scenario.t; j_conn : conn }

type stats = {
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable overloads : int;
  mutable errors : int;
  mutable simulations : int;
}

type state = {
  cfg : config;
  cache : Cache.t;
  stats : stats;
  queue : job Queue.t;
  mutable in_flight : int;
  mutable stop : bool;
  lock : Mutex.t;  (** guards cache, stats, queue, in_flight, stop, pending *)
  cond : Condition.t;
  io : Mutex.t;  (** serializes frame writes and descriptor closes *)
}

(* --- responses ------------------------------------------------------------ *)

let send state conn resp =
  Mutex.lock state.io;
  (if not conn.closed then
     try P.write_frame conn.fd (P.response_to_frame resp)
     with Unix.Unix_error _ -> ());
  Mutex.unlock state.io

let close_conn state conn =
  Mutex.lock state.io;
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock state.io

let fatal fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FATAL: %s\n%!" msg;
      exit 1)
    fmt

let selfcheck_hit state digest sc (payload : P.run_payload) =
  if state.cfg.selfcheck then begin
    match Exec.run sc with
    | Error e -> fatal "selfcheck: cached %s but recompute failed: %s" digest e
    | Ok fresh ->
      if not (P.payload_equal payload fresh) then
        fatal "selfcheck: cache hit %s is not byte-equal to recompute" digest
  end

(* --- worker domain -------------------------------------------------------- *)

let respond_run state job ~cached payload =
  send state job.j_conn
    (P.Ok_resp
       {
         id = job.j_id;
         cached;
         digest = Some job.j_digest;
         body = P.Run_result payload;
       });
  Mutex.lock state.lock;
  job.j_conn.pending <- job.j_conn.pending - 1;
  state.in_flight <- state.in_flight - 1;
  let drained = job.j_conn.eof && job.j_conn.pending = 0 in
  Mutex.unlock state.lock;
  if drained then close_conn state job.j_conn

let respond_error state job message =
  (* Counted before the response goes out, so a client that reads the
     error and then asks for stats sees it. *)
  Mutex.lock state.lock;
  state.stats.errors <- state.stats.errors + 1;
  Mutex.unlock state.lock;
  send state job.j_conn (P.Error_resp { id = job.j_id; message });
  Mutex.lock state.lock;
  job.j_conn.pending <- job.j_conn.pending - 1;
  state.in_flight <- state.in_flight - 1;
  let drained = job.j_conn.eof && job.j_conn.pending = 0 in
  Mutex.unlock state.lock;
  if drained then close_conn state job.j_conn

let process_batch state batch =
  (* Coalesce: one simulation per distinct digest, first-come order. A
     digest that landed in the cache since admission (a racing identical
     run completed) is served from it instead of re-simulated. *)
  let uniques = ref [] in
  List.iter
    (fun job ->
      if not (List.mem_assoc job.j_digest !uniques) then
        uniques := (job.j_digest, job.j_scenario) :: !uniques)
    batch;
  let uniques = List.rev !uniques in
  (* Each distinct digest is answered from what this batch saw of it: the
     payload the cache held when the batch was filtered, or this batch's
     own run. Never from a second cache lookup — a batch-mate's result may
     have evicted the entry by then. *)
  let answers = Hashtbl.create 8 in
  Mutex.lock state.lock;
  let to_run =
    List.filter
      (fun (digest, _) ->
        match Cache.find state.cache digest with
        | Some payload ->
          Hashtbl.replace answers digest (`Cached payload);
          false
        | None -> true)
      uniques
  in
  Mutex.unlock state.lock;
  (* Exec.run captures every exception, so the map never raises. A batch
     with one miss runs on this domain; wider ones spawn at most
     [jobs - 1] helper domains for the batch. *)
  let ran =
    List.combine (List.map fst to_run)
      (Parallel.map ~jobs:state.cfg.jobs (fun (_, sc) -> Exec.run sc) to_run)
  in
  Mutex.lock state.lock;
  (* A scenario [Exec.run] rejected never simulated: it is counted under
     [errors] when its jobs are answered, not under [simulations]. *)
  List.iter
    (fun (digest, result) ->
      Hashtbl.replace answers digest (`Ran result);
      match result with
      | Ok payload ->
        state.stats.simulations <- state.stats.simulations + 1;
        Cache.add state.cache digest payload
      | Error _ -> ())
    ran;
  (* The first job of a freshly simulated digest is the "miss" that paid
     for it; its batch-mates (and any job whose digest was already cached)
     are coalesced hits. *)
  let paid = Hashtbl.create 8 in
  let resolved =
    List.map
      (fun job ->
        let hit payload =
          state.stats.coalesced <- state.stats.coalesced + 1;
          state.stats.hits <- state.stats.hits + 1;
          Ok (true, payload)
        in
        let outcome =
          match Hashtbl.find answers job.j_digest with
          | `Cached payload -> hit payload
          | `Ran (Error e) -> Error e
          | `Ran (Ok payload) ->
            if Hashtbl.mem paid job.j_digest then hit payload
            else begin
              Hashtbl.replace paid job.j_digest ();
              Ok (false, payload)
            end
        in
        (job, outcome))
      batch
  in
  Mutex.unlock state.lock;
  List.iter
    (fun (job, outcome) ->
      match outcome with
      | Ok (cached, payload) ->
        if cached then selfcheck_hit state job.j_digest job.j_scenario payload;
        respond_run state job ~cached payload
      | Error e -> respond_error state job e)
    resolved

let worker state =
  let rec loop () =
    Mutex.lock state.lock;
    while Queue.is_empty state.queue && not state.stop do
      Condition.wait state.cond state.lock
    done;
    if Queue.is_empty state.queue && state.stop then Mutex.unlock state.lock
    else begin
      let batch = List.of_seq (Queue.to_seq state.queue) in
      Queue.clear state.queue;
      Mutex.unlock state.lock;
      process_batch state batch;
      loop ()
    end
  in
  loop ()

(* --- request handling (reader domain) ------------------------------------- *)

let snapshot state =
  {
    P.requests = state.stats.requests;
    hits = state.stats.hits;
    misses = state.stats.misses;
    coalesced = state.stats.coalesced;
    overloads = state.stats.overloads;
    errors = state.stats.errors;
    simulations = state.stats.simulations;
    cache_entries = Cache.length state.cache;
  }

(* [`Continue], or [`Shutdown id] when the request asked the server to
   shut down (answered later, after the drain). *)
let handle_request state conn payload =
  let req =
    match J.of_string payload with
    | Error e -> Error (0, "malformed JSON: " ^ e)
    | Ok j -> (
      match P.request_of_json j with
      | Ok req -> Ok req
      | Error e ->
        (* Echo the id when the envelope at least carried one. *)
        let id = match J.member "id" j with Some (J.Int i) -> i | _ -> 0 in
        Error (id, e))
  in
  Mutex.lock state.lock;
  state.stats.requests <- state.stats.requests + 1;
  Mutex.unlock state.lock;
  match req with
  | Error (id, message) ->
    Mutex.lock state.lock;
    state.stats.errors <- state.stats.errors + 1;
    Mutex.unlock state.lock;
    send state conn (P.Error_resp { id; message });
    `Continue
  | Ok { P.req_id; req_op = P.Stats } ->
    Mutex.lock state.lock;
    let s = snapshot state in
    Mutex.unlock state.lock;
    send state conn
      (P.Ok_resp { id = req_id; cached = false; digest = None; body = P.Stats_result s });
    `Continue
  | Ok { P.req_id; req_op = P.Shutdown } -> `Shutdown req_id
  | Ok { P.req_id; req_op = P.Run sc } -> (
    let digest = Scenario.digest sc in
    Mutex.lock state.lock;
    let verdict =
      match Cache.find state.cache digest with
      | Some payload ->
        state.stats.hits <- state.stats.hits + 1;
        `Hit payload
      | None ->
        if state.in_flight >= state.cfg.max_queue then begin
          state.stats.overloads <- state.stats.overloads + 1;
          `Overload
        end
        else begin
          state.stats.misses <- state.stats.misses + 1;
          state.in_flight <- state.in_flight + 1;
          conn.pending <- conn.pending + 1;
          Queue.add { j_id = req_id; j_digest = digest; j_scenario = sc; j_conn = conn }
            state.queue;
          Condition.signal state.cond;
          `Admitted
        end
    in
    Mutex.unlock state.lock;
    match verdict with
    | `Hit payload ->
      selfcheck_hit state digest sc payload;
      send state conn
        (P.Ok_resp
           {
             id = req_id;
             cached = true;
             digest = Some digest;
             body = P.Run_result payload;
           });
      `Continue
    | `Overload ->
      send state conn (P.Overload_resp { id = req_id });
      `Continue
    | `Admitted -> `Continue)

(* --- main loop ------------------------------------------------------------ *)

let run cfg =
  if cfg.max_queue < 1 then invalid_arg "Server.run: max_queue must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let state =
    {
      cfg;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      stats =
        {
          requests = 0;
          hits = 0;
          misses = 0;
          coalesced = 0;
          overloads = 0;
          errors = 0;
          simulations = 0;
        };
      queue = Queue.create ();
      in_flight = 0;
      stop = false;
      lock = Mutex.create ();
      cond = Condition.create ();
      io = Mutex.create ();
    }
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let worker_domain = Domain.spawn (fun () -> worker state) in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let chunk = Bytes.create 65536 in
  let drop conn =
    Hashtbl.remove conns conn.fd;
    Mutex.lock state.lock;
    conn.eof <- true;
    let drained = conn.pending = 0 in
    Mutex.unlock state.lock;
    if drained then close_conn state conn
  in
  let shutdown_requester = ref None in
  let running = ref true in
  while !running do
    let fds = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    let readable, _, _ = Unix.select fds [] [] (-1.0) in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          let client, _ = Unix.accept listen_fd in
          Hashtbl.replace conns client
            { fd = client; buf = P.Framebuf.create (); pending = 0; eof = false; closed = false }
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some conn -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | exception Unix.Unix_error _ -> drop conn
            | 0 -> drop conn
            | n ->
              P.Framebuf.feed conn.buf chunk ~len:n;
              let rec frames () =
                if !running then
                  match P.Framebuf.next conn.buf with
                  | Error _ -> drop conn  (* unrecoverable stream; stop *)
                  | Ok None -> ()
                  | Ok (Some payload) -> (
                    match handle_request state conn payload with
                    | `Continue -> frames ()
                    | `Shutdown id ->
                      shutdown_requester := Some (conn, id);
                      running := false)
              in
              frames ()))
      readable
  done;
  (* Drain: let the worker finish (and answer) every admitted run, then
     acknowledge the shutdown so the requester observes completion order. *)
  Mutex.lock state.lock;
  state.stop <- true;
  Condition.broadcast state.cond;
  Mutex.unlock state.lock;
  Domain.join worker_domain;
  (match !shutdown_requester with
  | Some (conn, id) ->
    send state conn
      (P.Ok_resp { id; cached = false; digest = None; body = P.Shutdown_ack })
  | None -> ());
  Hashtbl.iter (fun _ conn -> close_conn state conn) conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ()
