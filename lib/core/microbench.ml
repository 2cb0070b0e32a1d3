module E = Cpufree_engine
module G = Cpufree_gpu
module Mx = Cpufree_obs.Metrics
module Time = E.Time

(* Synthetic multi-GPU model for the engine-throughput microbenchmark
   (`bench -- micro`) and the instrumentation-overhead figure
   (`bench -- profile`).

   Each simulated GPU runs a rank process that alternates compute ticks
   with a halo send to a neighbour, then waits for its own inbound halo.
   A halo lands one cross-device latency after it is sent, as a scheduled
   callback that accumulates bytes, mixes the payload into the receiver's
   inbox with xor and raises the receiver's arrival flag. *)

type pattern = Ring | Shift of int

type config = {
  gpus : int;
  iters : int;  (** halo-exchange rounds per rank *)
  ticks_per_iter : int;  (** compute delays between exchanges *)
  tick_ns : int;  (** simulated length of one compute delay *)
  bytes_per_msg : int;  (** accounted payload of one halo message *)
  pattern : pattern;  (** who each rank sends to *)
  arch : G.Arch.t;  (** supplies the halo latency *)
  traced : bool;  (** record compute spans *)
  metrics : Mx.t option;  (** hot-loop instruments (for overhead measurement) *)
}

let default =
  {
    gpus = 8;
    iters = 200;
    ticks_per_iter = 4;
    tick_ns = 400;
    bytes_per_msg = 4096;
    pattern = Ring;
    arch = G.Arch.a100_hgx;
    traced = false;
    metrics = None;
  }

type output = {
  sim_ns : int;
  events : int;
  bytes : int;
  checksum : int;
  spans : E.Trace.span list;  (** canonical order; empty when untraced *)
}

type report = { wall_sec : float; major_words : float; out : output }

let equal_output a b =
  a.sim_ns = b.sim_ns && a.events = b.events && a.bytes = b.bytes && a.checksum = b.checksum
  && a.spans = b.spans

let events_per_sec r =
  if r.wall_sec <= 0.0 then 0.0 else float_of_int r.out.events /. r.wall_sec

let dst_of cfg g =
  match cfg.pattern with
  | Ring -> (g + 1) mod cfg.gpus
  | Shift k -> (((g + k) mod cfg.gpus) + cfg.gpus) mod cfg.gpus

let mix h v = ((h * 0x2545F4914F6CDD1D) + v) lxor (v lsl 17)

let build cfg =
  if cfg.gpus <= 0 then invalid_arg "Microbench: need at least one GPU";
  let trace = if cfg.traced then Some (E.Trace.create ()) else None in
  let eng = E.Engine.create ?trace () in
  let latency = G.Arch.lookahead_bound cfg.arch in
  let arrived =
    Array.init cfg.gpus (fun g -> E.Sync.Flag.create ~name:(Printf.sprintf "halo.gpu%d" g) eng 0)
  in
  let bytes = Array.make cfg.gpus 0 in
  let inbox = Array.make cfg.gpus 0 in
  let final = Array.make cfg.gpus 0 in
  (* Per-rank hot-loop instruments; the honest vehicle for the fig.profile
     overhead measurement, so the counters sit exactly where a production
     model would put them — inside the tick and send loops. *)
  let obs =
    match cfg.metrics with
    | None -> None
    | Some reg ->
      let per_rank name =
        Array.init cfg.gpus (fun g -> Mx.counter reg ~name ~labels:[ ("rank", string_of_int g) ] ())
      in
      Some (per_rank "micro.ticks", per_rank "micro.msgs", per_rank "micro.msg_bytes")
  in
  for g = 0 to cfg.gpus - 1 do
    let (_ : E.Engine.process) =
      E.Engine.spawn eng
        ~name:(Printf.sprintf "rank%d" g)
        (fun () ->
          let state = ref (mix 0 g) in
          let tick = Time.ns cfg.tick_ns in
          let dst = dst_of cfg g in
          for it = 1 to cfg.iters do
            let t0 = E.Engine.now eng in
            for _k = 1 to cfg.ticks_per_iter do
              E.Engine.delay eng tick;
              state := mix !state it;
              match obs with None -> () | Some (ticks, _, _) -> Mx.Counter.incr ticks.(g)
            done;
            E.Trace.add_opt (E.Engine.trace eng)
              ~lane:(Printf.sprintf "gpu%d" g)
              ~label:"tick" ~kind:E.Trace.Compute ~t0 ~t1:(E.Engine.now eng);
            if dst <> g then begin
              (match obs with
              | None -> ()
              | Some (_, msgs, mbytes) ->
                Mx.Counter.incr msgs.(g);
                Mx.Counter.add mbytes.(g) cfg.bytes_per_msg);
              let payload = !state in
              E.Engine.schedule_at eng (Time.add (E.Engine.now eng) latency) (fun () ->
                  bytes.(dst) <- bytes.(dst) + cfg.bytes_per_msg;
                  inbox.(dst) <- inbox.(dst) lxor payload;
                  E.Sync.Flag.add arrived.(dst) 1);
              (* This round's inbound halo must land before the next one. *)
              E.Sync.Flag.wait_ge arrived.(g) it
            end
          done;
          final.(g) <- !state lxor inbox.(g))
    in
    ()
  done;
  (eng, bytes, final)

let run_seq cfg =
  let eng, bytes, final = build cfg in
  let g0 = Gc.quick_stat () in
  let w0 = Unix.gettimeofday () in
  E.Engine.run eng;
  let wall_sec = Unix.gettimeofday () -. w0 in
  let g1 = Gc.quick_stat () in
  {
    wall_sec;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    out =
      {
        sim_ns = Time.to_ns (E.Engine.now eng);
        events = E.Engine.events_executed eng;
        bytes = Array.fold_left ( + ) 0 bytes;
        checksum = Array.fold_left mix 0 final;
        spans = (match E.Engine.trace eng with None -> [] | Some tr -> E.Trace.sorted_spans tr);
      };
  }
