module G = Cpufree_gpu

type algorithm = Dense | Ring | Tree | Doubling

let algorithm_to_string = function
  | Dense -> "dense"
  | Ring -> "ring"
  | Tree -> "tree"
  | Doubling -> "doubling"

let algorithm_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" -> Ok Dense
  | "ring" -> Ok Ring
  | "tree" | "binomial" -> Ok Tree
  | "doubling" | "recursive-doubling" | "rd" -> Ok Doubling
  | other ->
    Error (Printf.sprintf "unknown collective algorithm %S (dense, ring, tree, doubling)" other)

let ceil_pow2 n =
  let k = ref 0 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

(* An allgather schedule over [n] GPUs, written once and walked by both
   drivers. In phase [p], GPU [g] issues its copies in order — each
   [(dst, pos, len)] copies slots [pos, pos + len) of its bank into the
   same slots of [dst]'s — and then waits until [awaits p g] more elements
   have arrived on channel [chan p] ([no_wait]: it does not wait). Every
   schedule leaves slot [r] = GPU [r]'s value in every bank, so the
   reduction below is identical across them.

   A copy is read in continuation-passing style, so walking a schedule
   allocates nothing: [copy p g i issue past] is [issue dst pos len] for
   GPU [g]'s copy [i] of phase [p], or [past ()] when it issues fewer.

   Channels. Tree and doubling wait mid-schedule for data they forward
   onward, so a shared arrival counter is not sound: a near peer's
   later-step message could satisfy an earlier wait whose far message is
   still in flight, and the PE would forward a stale slot. Each such phase
   therefore rides its own signal with exactly one sender per receiver per
   round and a fixed per-round count — per-sender delivery is FIFO (same
   pair, same route, same size), so a satisfied threshold is a data
   guarantee. Dense stays on a single counter: it only reads after the
   whole round's count (and shortest-path routing obeys the triangle
   inequality, so no relayed message can overtake a direct one). Ring has
   a single sender per PE, so a single counter serves it while deliveries
   keep their order.

   Under an active fault plan they do not: a dropped or delayed delivery
   lands after later ones from its sender. So there ring rides one signal
   per phase, and every schedule keeps one set of signals per bank (see
   [create]), so that a peer already in the next round cannot meet this
   round's wait either. *)
type schedule = {
  channels : string array;  (* signal label suffixes, indexed by [chan] *)
  phases : int;
  chan : int -> int;
  copy : 'a. int -> int -> int -> (int -> int -> int -> 'a) -> (unit -> 'a) -> 'a;
  awaits : int -> int -> int;
}

let no_wait = -1

(* Dense: scatter my slot to every peer at once, wait for all n-1 (even
   for none at n = 1). The original all-to-all — latency-optimal at small
   n, n² messages. *)
let dense n =
  {
    channels = [| "arrived" |];
    phases = 1;
    chan = (fun _ -> 0);
    copy =
      (fun _ g i issue past -> if i < n - 1 then issue (if i < g then i else i + 1) g 1 else past ());
    awaits = (fun _ _ -> n - 1);
  }

(* Ring: n-1 phases, each forwarding the slot received in the previous
   phase to the successor. Bandwidth-optimal; every message rides a
   neighbour link, which is what makes it the right shape on the ring
   topology. [reorders]: phase [p] rides its own signal [ph<p>]. *)
let ring ~reorders n =
  {
    channels = (if reorders then Array.init (n - 1) (Printf.sprintf "ph%d") else [| "arrived" |]);
    phases = n - 1;
    chan = (if reorders then Fun.id else fun _ -> 0);
    copy =
      (fun s g i issue past -> if i = 0 then issue ((g + 1) mod n) ((g - s + n) mod n) 1 else past ());
    awaits = (fun _ _ -> 1);
  }

(* Binomial tree: gather blocks up to GPU 0 (each GPU sends its whole held
   block to its parent at the level its lowest set bit fires), then
   broadcast the full bank back down. Phase [k < kmax] is up level [k] on
   signal [up<k>] (single sender: the [g + 2^k] child); phase [kmax + j] is
   down level [kmax - 1 - j] on [down] (single sender: the parent). The
   down-phase overwrite of a child's own slots is benign: the root's copy
   carries the same values the child contributed. *)
let tree n =
  let kmax = ceil_pow2 n in
  let up p = p < kmax in
  (* [low] is [g]'s bits below and at this phase's level. *)
  let level p g =
    let step = 1 lsl if up p then p else (2 * kmax) - 1 - p in
    (step, g land ((2 * step) - 1))
  in
  {
    channels = Array.append (Array.init kmax (Printf.sprintf "up%d")) [| "down" |];
    phases = 2 * kmax;
    chan = (fun p -> if up p then p else kmax);
    copy =
      (fun p g i issue past ->
        let step, low = level p g in
        if i > 0 then past ()
        else if up p then if low = step then issue (g - step) g (min step (n - g)) else past ()
        else if low = 0 && g + step < n then issue (g + step) 0 n
        else past ());
    awaits =
      (fun p g ->
        let step, low = level p g in
        if up p then if low = 0 && g + step < n then min step (n - g - step) else no_wait
        else if low = step then n
        else no_wait);
  }

(* Recursive doubling over the largest power-of-two subset [pp]: the n-pp
   extras fold their slot into a partner first (stage [pre]) and receive
   the finished bank last ([post]); partners exchange doubling block pairs
   (the [0, pp) primary range plus the folded shadow range parked at
   [pp, n)) for log pp stages [st<k>]. Each stage rides its own signal —
   the pre-fold partner is far while the first exchange partner is
   adjacent, so a shared counter would let the near message satisfy the
   far wait. Without extras the pre and post stages are skipped. *)
let doubling n =
  let pp = 1 lsl ceil_pow2 n in
  let pp = if pp > n then pp lsr 1 else pp in
  let r = n - pp and k = ceil_pow2 pp in
  let first = if r > 0 then 0 else 1 in
  let shadow base s = max 0 (min (base + s) r - base) in
  (* Stage [st] in 1..k exchanges blocks of [s = 2^(st-1)] with [g lxor s]. *)
  let block st g =
    let s = 1 lsl (st - 1) in
    (s, g lxor s, g land lnot (s - 1))
  in
  {
    channels =
      Array.concat [ [| "pre" |]; Array.init k (Printf.sprintf "st%d"); [| "post" |] ];
    phases = (if r > 0 then k + 2 else k);
    chan = (fun p -> p + first);
    copy =
      (fun p g i issue past ->
        let st = p + first in
        if st = 0 then if g >= pp && i = 0 then issue (g - pp) g 1 else past ()
        else if st > k then if g < r && i = 0 then issue (g + pp) 0 n else past ()
        else if g >= pp then past ()
        else
          let s, partner, base = block st g in
          let sh = shadow base s in
          if i = 0 then issue partner base s
          else if i = 1 && sh > 0 then issue partner (pp + base) sh
          else past ());
    awaits =
      (fun p g ->
        let st = p + first in
        if st = 0 then if g < r then 1 else no_wait
        else if st > k then if g >= pp then n else no_wait
        else if g >= pp then no_wait
        else
          let s, partner, _ = block st g in
          let _, _, pbase = block st partner in
          s + shadow pbase s);
  }

let schedule ?(reorders = false) algorithm n =
  match algorithm with
  | Dense -> dense n
  | Ring -> ring ~reorders n
  | Tree -> tree n
  | Doubling -> doubling n

(* ------------------------------------------------------------------ *)
(* Device-initiated driver                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  nv : Nvshmem.t;
  sched : schedule;
  contrib : Nvshmem.sym;  (* per PE: one slot per contributor *)
  chans : Nvshmem.signal array;  (* bank [b]'s channel [c] at [b * per_bank + c] *)
  per_bank : int;  (* channels per bank when each bank has its own, else 0 *)
  round : int array;  (* completed rounds, per PE *)
  expect : int array array;  (* per PE, per signal: cumulative elements awaited *)
}

let create ?(algorithm = Dense) nv ~label =
  let n = Nvshmem.n_pes nv in
  let reorders = Nvshmem.reorders nv in
  let sched = schedule ~reorders algorithm n in
  (* Two banks of n slots, alternating by round parity: every algorithm
     here is a full allgather, so a PE finishing round R+1 proves every
     other PE entered R+1 — i.e. finished reading bank R — before any
     round-R+2 write can touch that bank. No barrier needed. The same
     argument makes per-bank signals sound when deliveries reorder: only
     round R and R+1 messages can be in flight while a PE waits in R. *)
  let k = Array.length sched.channels in
  let chans =
    if reorders then
      Array.init (2 * k) (fun i ->
          Nvshmem.signal_malloc nv
            ~label:(Printf.sprintf "%s.%s.bank%d" label sched.channels.(i mod k) (i / k))
            ())
    else Array.map (fun c -> Nvshmem.signal_malloc nv ~label:(label ^ "." ^ c) ()) sched.channels
  in
  let contrib = Nvshmem.sym_malloc nv ~label:(label ^ ".contrib") (2 * n) in
  {
    nv;
    sched;
    contrib;
    chans;
    per_bank = (if reorders then k else 0);
    round = Array.make n 0;
    expect = Array.init n (fun _ -> Array.make (Array.length chans) 0);
  }

let n t = Nvshmem.n_pes t.nv

(* Each copy is a position-preserving signaled put that bumps the phase's
   channel at the peer by the element count (put-then-signal ordering
   makes each arrival a data guarantee); each wait raises this PE's
   cumulative threshold on that channel, so no signal is ever reset. The
   whole schedule is one chain of steps, whose closures are made once per
   round: [step] continues every put and every wait. *)
let allreduce_sum_k t ~pe value k =
  t.round.(pe) <- t.round.(pe) + 1;
  let parity = t.round.(pe) land 1 in
  let bank = parity * n t in
  let own = Nvshmem.local t.contrib ~pe in
  G.Buffer.set own (bank + pe) value;
  let s = t.sched in
  (* Copy [!i] of phase [!p] is next. *)
  let p = ref 0 and i = ref 0 in
  let chan () = (parity * t.per_bank) + s.chan !p in
  let rec step () =
    if !p = s.phases then begin
      let acc = ref 0.0 in
      for slot = 0 to n t - 1 do
        acc := !acc +. G.Buffer.get own (bank + slot)
      done;
      k !acc
    end
    else s.copy !p pe !i issue wait
  and issue dst pos len =
    incr i;
    Nvshmem.putmem_signal_nbi_k t.nv ~from_pe:pe ~to_pe:dst ~src:own ~src_pos:(bank + pos)
      ~dst:t.contrib ~dst_pos:(bank + pos) ~len ~sig_var:t.chans.(chan ())
      ~sig_op:Nvshmem.Signal_add ~sig_value:len step
  and wait () =
    let c = chan () and a = s.awaits !p pe in
    incr p;
    i := 0;
    if a = no_wait then step ()
    else begin
      let e = t.expect.(pe) in
      e.(c) <- e.(c) + a;
      Nvshmem.signal_wait_ge_k t.nv ~pe ~sig_var:t.chans.(c) e.(c) step
    end
  in
  step ()

(* The fiber form, for a fiber harness outside the library. *)
let allreduce_sum t ~pe value =
  Cpufree_engine.Engine.handover (Nvshmem.engine t.nv) (allreduce_sum_k t ~pe value)

let rounds t ~pe = t.round.(pe)

(* ------------------------------------------------------------------ *)
(* CPU-driven driver                                                   *)
(* ------------------------------------------------------------------ *)

(* The same schedule, orchestrated by the host: every copy is a
   [cudaMemcpyAsync] issued from the host and every phase ends with a
   [cudaStreamSynchronize] on every stream, so each phase pays the
   API-latency tax the device-initiated driver avoids — the paper's
   control-path comparison, extended to collectives. *)

module R = G.Runtime

let host_allreduce_sum_k ctx ~algorithm ~label values k =
  let nn = R.num_gpus ctx in
  if Array.length values <> nn then
    invalid_arg "Collective.host_allreduce_sum: one value per GPU required";
  let bufs =
    Array.init nn (fun g ->
        let b = G.Buffer.create ~device:g ~label:(Printf.sprintf "%s.b%d" label g) nn in
        G.Buffer.set b g values.(g);
        b)
  in
  let streams =
    Array.init nn (fun g ->
        G.Stream.create (R.engine ctx) ~dev:(R.device ctx g)
          ~name:(Printf.sprintf "%s.s%d" label g))
  in
  let s = schedule algorithm nn in
  (* GPU [!g]'s copy [!i] of phase [!p] is next; past the last GPU, the
     synchronization of stream [!g - nn]. *)
  let p = ref 0 and g = ref 0 and i = ref 0 in
  let rec step () =
    if !p = s.phases then
      k
        (Array.init nn (fun g ->
             let acc = ref 0.0 in
             for q = 0 to nn - 1 do
               acc := !acc +. G.Buffer.get bufs.(g) q
             done;
             !acc))
    else if !g < nn then s.copy !p !g !i issue next_gpu
    else if !g < 2 * nn then begin
      let stream = streams.(!g - nn) in
      incr g;
      R.stream_synchronize_k ctx stream step
    end
    else begin
      incr p;
      g := 0;
      step ()
    end
  and issue dst pos len =
    incr i;
    R.memcpy_async_k ctx ~stream:streams.(!g) ~src:bufs.(!g) ~src_pos:pos ~dst:bufs.(dst)
      ~dst_pos:pos ~len step
  and next_gpu () =
    incr g;
    i := 0;
    step ()
  in
  step ()

(* The fiber form, for a fiber harness outside the library. *)
let host_allreduce_sum ctx ~algorithm ~label values =
  Cpufree_engine.Engine.handover (R.engine ctx) (host_allreduce_sum_k ctx ~algorithm ~label values)
