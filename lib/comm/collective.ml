module G = Cpufree_gpu
module F = Cpufree_fault.Fault

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

(* Tree and doubling wait mid-schedule for data they forward onward, so a
   shared arrival counter is not sound: a near peer's later-step message
   could satisfy an earlier wait whose far message is still in flight, and
   the PE would forward a stale slot. Each such channel therefore gets its
   own signal with exactly one sender per receiver per round and a fixed
   per-round count — per-sender delivery is FIFO (same pair, same route,
   same size), so a satisfied threshold is a data guarantee. Dense and ring
   stay on the single counter: dense only reads after the whole round's
   count (and shortest-path routing obeys the triangle inequality, so no
   relayed message can overtake a direct one), and ring has a single sender
   per PE. *)
type channels =
  | Shared
  | Tree_sigs of { up : Nvshmem.signal array; down : Nvshmem.signal }
  | Dbl_sigs of { pre : Nvshmem.signal; step : Nvshmem.signal array; post : Nvshmem.signal }

(* A membership view: the PEs participating in the schedule (rank order)
   plus the signal set the schedule rides. The full group is built at
   [create]; fail-stop shrinks build smaller groups keyed by the dead set,
   with fresh signals so counts from an abandoned round cannot satisfy a
   shrunk round's waits. Schedules run in {e rank} space (a rank is an
   index into [members]); on the healthy full group rank = PE id, keeping
   fault-free runs byte-identical to the pre-fail-stop layer. *)
type group = {
  members : int array;  (* rank -> PE id, ascending *)
  rank : int array;  (* PE id -> rank, -1 for a non-member *)
  arrived : Nvshmem.signal;  (* counts contributions delivered to this PE *)
  chans : channels;
  gkey : string;  (* canonical dead-set key; "" = full membership *)
}

let make_group ~n ~members ~arrived ~chans ~gkey =
  let rank = Array.make n (-1) in
  Array.iteri (fun r pe -> rank.(pe) <- r) members;
  { members; rank; arrived; chans; gkey }

type t = {
  nv : Nvshmem.t;
  alg : algorithm;
  clabel : string;
  contrib : Nvshmem.sym;  (* per PE: one slot per contributor *)
  groups : (string, group) Hashtbl.t;  (* dead-set key -> group, shared *)
  pe_grp : group array;  (* per-PE adopted membership view *)
  round : int array;  (* completed rounds, per PE *)
  expect : int array;  (* cumulative arrival count each PE waits for *)
  rbase : int array;  (* rounds completed before adopting pe_grp.(pe) *)
  mutable shrunk : bool;  (* any membership shrink performed *)
}

let make_channels nv ~label ~m = function
  | Dense | Ring -> Shared
  | Tree ->
    Tree_sigs
      {
        up =
          Array.init (ceil_pow2 m) (fun k ->
              Nvshmem.signal_malloc nv ~label:(Printf.sprintf "%s.up%d" label k) ());
        down = Nvshmem.signal_malloc nv ~label:(label ^ ".down") ();
      }
  | Doubling ->
    Dbl_sigs
      {
        pre = Nvshmem.signal_malloc nv ~label:(label ^ ".pre") ();
        step =
          Array.init (ceil_pow2 m) (fun k ->
              Nvshmem.signal_malloc nv ~label:(Printf.sprintf "%s.st%d" label k) ());
        post = Nvshmem.signal_malloc nv ~label:(label ^ ".post") ();
      }

let create ?(algorithm = Dense) nv ~label =
  let n = Nvshmem.n_pes nv in
  let chans = make_channels nv ~label ~m:n algorithm in
  (* Two banks of n slots, alternating by round parity: every algorithm
     here is a full allgather, so a PE finishing round R+1 proves every
     other PE entered R+1 — i.e. finished reading bank R — before any
     round-R+2 write can touch that bank. No barrier needed. *)
  let contrib = Nvshmem.sym_malloc nv ~label:(label ^ ".contrib") (2 * n) in
  let arrived = Nvshmem.signal_malloc nv ~label:(label ^ ".arrived") () in
  let full = make_group ~n ~members:(Array.init n Fun.id) ~arrived ~chans ~gkey:"" in
  let groups = Hashtbl.create 4 in
  Hashtbl.add groups "" full;
  {
    nv;
    alg = algorithm;
    clabel = label;
    contrib;
    groups;
    pe_grp = Array.make n full;
    round = Array.make n 0;
    expect = Array.make n 0;
    rbase = Array.make n 0;
    shrunk = false;
  }

let n t = Nvshmem.n_pes t.nv

let algorithm t = t.alg

let degraded t = t.shrunk

let members t ~pe = Array.copy t.pe_grp.(pe).members

(* ------------------------------------------------------------------ *)
(* Fail-stop plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* All membership decisions are pure functions of (spec, virtual now) —
   the kill schedule, not the mutable registry — so every survivor
   derives the same dead set and the same shrunk group. The checks are compiled out (None) without fail-stop clauses,
   keeping those runs byte-identical. *)
let failstop t =
  match Nvshmem.faults t.nv with
  | None -> None
  | Some plan ->
    let spec = F.spec_of plan in
    if F.has_failstop spec then Some (plan, spec) else None

let self_dead t ~pe =
  match failstop t with
  | None -> false
  | Some (_, spec) -> F.dead spec ~pe ~now:(Nvshmem.now t.nv)

let dead_now t =
  match failstop t with
  | None -> []
  | Some (_, spec) -> F.killed_by spec ~now:(Nvshmem.now t.nv)

let dead_key dead = String.concat "." (List.map (fun (d, _) -> string_of_int d) dead)

let rank_of g pe =
  let r = if pe >= 0 && pe < Array.length g.rank then g.rank.(pe) else -1 in
  if r < 0 then invalid_arg (Printf.sprintf "Collective: PE %d is not a group member" pe);
  r

(* Collective-level signal wait. A kill diagnosis
   ({!F.Killed} from the resilient wait) propagates to the round-retry
   handler only when it carries new information; a timeout naming only
   deaths this PE's membership already excludes is spurious (the shrunk
   schedule is merely slow) and the wait resumes. *)
let coll_wait t ~pe ~sig_var v =
  let rec go () =
    match Nvshmem.signal_wait_ge t.nv ~pe ~sig_var v with
    | () -> ()
    | exception (F.Killed _ as ex) ->
      if String.equal (dead_key (dead_now t)) t.pe_grp.(pe).gkey && not (self_dead t ~pe)
      then go ()
      else raise ex
  in
  go ()

(* Position-preserving signaled put: slot [pos] of my bank lands in slot
   [pos] of [peer]'s, bumping [sig_var]'s count at the peer by the element
   count (put-then-signal ordering makes each arrival a data guarantee).
   [rank]/[peer] are rank-space; the group maps them to PE ids. *)
let send_on t g ~sig_var ~rank ~peer ~pos ~len =
  let from_pe = g.members.(rank) and to_pe = g.members.(peer) in
  Nvshmem.putmem_signal_nbi t.nv ~from_pe ~to_pe
    ~src:(Nvshmem.local t.contrib ~pe:from_pe) ~src_pos:pos ~dst:t.contrib ~dst_pos:pos ~len
    ~sig_var ~sig_op:Nvshmem.Signal_add ~sig_value:len

let send t g ~rank ~peer ~pos ~len = send_on t g ~sig_var:g.arrived ~rank ~peer ~pos ~len

(* Block until [extra] more elements than everything awaited so far have
   arrived on the shared counter. Cumulative, so it never needs a reset
   — [expect] restarts from zero when a PE adopts a shrunk group's fresh
   counter. *)
let wait t g ~pe ~extra =
  t.expect.(pe) <- t.expect.(pe) + extra;
  coll_wait t ~pe ~sig_var:g.arrived t.expect.(pe)

(* Dense: scatter my slot to every peer at once, wait for all m-1. The
   original all-to-all — latency-optimal at small m, m² messages. *)
let gather_dense t g ~pe ~rank ~bank =
  let m = Array.length g.members in
  for peer = 0 to m - 1 do
    if peer <> rank then send t g ~rank ~peer ~pos:(bank + rank) ~len:1
  done;
  wait t g ~pe ~extra:(m - 1)

(* Ring: m-1 steps, each forwarding the slot received in the previous step
   to the successor. Bandwidth-optimal; every message rides a neighbour
   link, which is what makes it the right shape on the ring topology. *)
let gather_ring t g ~pe ~rank ~bank =
  let m = Array.length g.members in
  let succ = (rank + 1) mod m in
  for s = 0 to m - 2 do
    let slot = (rank - s + m) mod m in
    send t g ~rank ~peer:succ ~pos:(bank + slot) ~len:1;
    wait t g ~pe ~extra:1
  done

(* Per-channel wait: one sender, a fixed count per round, cumulative
   threshold [(round - rbase) * per_round] — per-sender FIFO makes this
   sound even when other channels' messages arrive out of order, and the
   base offset restarts the count on a shrunk group's fresh signals. *)
let wait_on t ~sig_var ~pe ~per_round =
  coll_wait t ~pe ~sig_var ((t.round.(pe) - t.rbase.(pe)) * per_round)

(* Binomial tree: gather blocks up to PE 0 (each PE sends its whole held
   block to its parent the round its lowest set bit fires), then broadcast
   the full bank back down. 2·log n rounds, log n fan-out per PE; level [k]
   rides its own signal (single sender: the [pe + 2^k] child; the down
   broadcast likewise comes only from the parent). The down-phase overwrite
   of a child's own slots is benign: the root's copy carries the same
   values the child contributed. *)
let gather_tree t g ~pe ~rank ~bank ~up ~down =
  let m = Array.length g.members in
  if m > 1 then begin
    let kmax = ceil_pow2 m in
    (try
       for k = 0 to kmax - 1 do
         let step = 1 lsl k in
         if rank land step <> 0 then begin
           send_on t g ~sig_var:up.(k) ~rank ~peer:(rank - step) ~pos:(bank + rank)
             ~len:(min step (m - rank));
           raise Exit
         end
         else if rank + step < m then
           wait_on t ~sig_var:up.(k) ~pe ~per_round:(min step (m - (rank + step)))
       done
     with Exit -> ());
    let lowbit p =
      let k = ref 0 in
      while p land (1 lsl !k) = 0 do
        incr k
      done;
      !k
    in
    let top = if rank = 0 then kmax - 1 else lowbit rank - 1 in
    if rank <> 0 then wait_on t ~sig_var:down ~pe ~per_round:m;
    for k = top downto 0 do
      let child = rank + (1 lsl k) in
      if child < m then send_on t g ~sig_var:down ~rank ~peer:child ~pos:bank ~len:m
    done
  end

(* Recursive doubling over the largest power-of-two subset: the n-P extras
   fold their slot into a partner first and receive the finished bank last;
   partners exchange doubling block pairs (the [0,P) primary range plus the
   folded shadow range parked at [P,n)) for log P rounds. Each phase rides
   its own signal — the pre-fold partner is far while the first exchange
   partner is adjacent, so a shared counter would let the near message
   satisfy the far wait. *)
let gather_doubling t g ~pe ~rank ~bank ~pre ~step_sig ~post =
  let m = Array.length g.members in
  let pp = 1 lsl (ceil_pow2 m) in
  let pp = if pp > m then pp lsr 1 else pp in
  let r = m - pp in
  if rank >= pp then begin
    send_on t g ~sig_var:pre ~rank ~peer:(rank - pp) ~pos:(bank + rank) ~len:1;
    wait_on t ~sig_var:post ~pe ~per_round:m
  end
  else begin
    if rank < r then wait_on t ~sig_var:pre ~pe ~per_round:1;
    let k = ref 0 in
    while 1 lsl !k < pp do
      let s = 1 lsl !k in
      let partner = rank lxor s in
      let base = rank land lnot (s - 1) in
      send_on t g ~sig_var:step_sig.(!k) ~rank ~peer:partner ~pos:(bank + base) ~len:s;
      let sh = max 0 (min (base + s) r - base) in
      if sh > 0 then
        send_on t g ~sig_var:step_sig.(!k) ~rank ~peer:partner ~pos:(bank + pp + base) ~len:sh;
      let pbase = partner land lnot (s - 1) in
      let psh = max 0 (min (pbase + s) r - pbase) in
      wait_on t ~sig_var:step_sig.(!k) ~pe ~per_round:(s + psh);
      incr k
    done;
    if rank < r then send_on t g ~sig_var:post ~rank ~peer:(rank + pp) ~pos:bank ~len:m
  end

(* Survivor agreement on a shrink: derive the dead set from the kill
   schedule at virtual [now] (every survivor that diagnoses the same
   deaths derives the same set, in any order), record the obituaries, and
   adopt the group keyed by that set — building it (fresh membership,
   fresh signals) only on first adoption, so later diagnosers join the
   same schedule. Returns [false] when the diagnosis carries no new
   deaths for this PE: the failed round cannot be repaired by shrinking
   again (a mid-round partial contribution), and the caller aborts with
   the diagnosed kill instead. *)
let shrink t ~pe =
  match failstop t with
  | None -> false
  | Some (plan, spec) ->
    let dead = F.killed_by spec ~now:(Nvshmem.now t.nv) in
    List.iter (fun (dpe, dat) -> F.note_obituary plan ~pe:dpe ~at:dat) dead;
    let key = dead_key dead in
    if String.equal key t.pe_grp.(pe).gkey then false
    else begin
      let g =
        match Hashtbl.find_opt t.groups key with
        | Some g -> g
        | None ->
          let corpses = List.map fst dead in
          let members =
            Array.of_list
              (List.filter (fun q -> not (List.mem q corpses)) (List.init (n t) Fun.id))
          in
          let label = Printf.sprintf "%s.x%s" t.clabel key in
          let arrived = Nvshmem.signal_malloc t.nv ~label:(label ^ ".arrived") () in
          let chans = make_channels t.nv ~label ~m:(Array.length members) t.alg in
          let g = make_group ~n:(n t) ~members ~arrived ~chans ~gkey:key in
          Hashtbl.add t.groups key g;
          F.note_shrink plan;
          g
      in
      if Array.length g.members = 0 then false
      else begin
        t.pe_grp.(pe) <- g;
        t.expect.(pe) <- 0;
        t.rbase.(pe) <- t.round.(pe) - 1;
        t.shrunk <- true;
        true
      end
    end

let run_schedule t g ~pe ~rank ~bank =
  match t.alg, g.chans with
  | Dense, _ -> gather_dense t g ~pe ~rank ~bank
  | Ring, _ -> gather_ring t g ~pe ~rank ~bank
  | Tree, Tree_sigs { up; down } -> gather_tree t g ~pe ~rank ~bank ~up ~down
  | Doubling, Dbl_sigs { pre; step; post } ->
    gather_doubling t g ~pe ~rank ~bank ~pre ~step_sig:step ~post
  | (Tree | Doubling), _ -> assert false

(* One attempt at the current round on this PE's adopted group; a kill
   diagnosed mid-schedule shrinks the membership and redoes the round
   over the survivors (fresh signals, so the abandoned attempt's counts
   cannot satisfy the redo's waits; the redo repopulates every slot the
   reduction reads). A corpse woken by its own timeout abandons the
   round silently — its result is never consumed. *)
let rec attempt t ~pe ~bank value =
  let g = t.pe_grp.(pe) in
  let rank = rank_of g pe in
  G.Buffer.set (Nvshmem.local t.contrib ~pe) (bank + rank) value;
  match run_schedule t g ~pe ~rank ~bank with
  | () -> ()
  | exception (F.Killed _ as ex) ->
    if self_dead t ~pe then ()
    else if shrink t ~pe then attempt t ~pe ~bank value
    else raise ex

(* Allgather my value into every member's bank for this round, then wait
   until all m contributions have arrived here. Returns the bank offset to
   read. Every algorithm leaves the identical slot layout (slot r = rank
   r's value), so the reduction below is numerically identical across
   them. A PE whose scheduled death has passed contributes nothing and
   waits for nothing. *)
let gather_round t ~pe value =
  t.round.(pe) <- t.round.(pe) + 1;
  let bank = (t.round.(pe) land 1) * n t in
  if not (self_dead t ~pe) then attempt t ~pe ~bank value;
  bank

let allreduce_sum t ~pe value =
  let bank = gather_round t ~pe value in
  let own = Nvshmem.local t.contrib ~pe in
  let g = t.pe_grp.(pe) in
  let acc = ref 0.0 in
  for slot = 0 to Array.length g.members - 1 do
    acc := !acc +. G.Buffer.get own (bank + slot)
  done;
  !acc

let barrier t ~pe = Nvshmem.barrier_all t.nv ~pe
let rounds t ~pe = t.round.(pe)

(* ------------------------------------------------------------------ *)
(* CPU-driven baselines                                                *)
(* ------------------------------------------------------------------ *)

(* The same communication schedules, orchestrated by the host: every copy is
   a [cudaMemcpyAsync] issued from the host and every dependency a
   [cudaStreamSynchronize] barrier, so each step pays the API-latency tax
   the device-initiated variants avoid — the paper's control-path
   comparison, extended to collectives. *)

module R = G.Runtime

let host_allreduce_sum ctx ~algorithm ~label values =
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
  let copy ~src ~dst ~pos ~len =
    R.memcpy_async ctx ~stream:streams.(src) ~src:bufs.(src) ~src_pos:pos ~dst:bufs.(dst)
      ~dst_pos:pos ~len
  in
  let sync () = Array.iter (fun s -> R.stream_synchronize ctx s) streams in
  (match algorithm with
  | Dense ->
    for g = 0 to nn - 1 do
      for peer = 0 to nn - 1 do
        if peer <> g then copy ~src:g ~dst:peer ~pos:g ~len:1
      done
    done;
    sync ()
  | Ring ->
    for s = 0 to nn - 2 do
      for g = 0 to nn - 1 do
        copy ~src:g ~dst:((g + 1) mod nn) ~pos:((g - s + nn) mod nn) ~len:1
      done;
      sync ()
    done
  | Tree ->
    if nn > 1 then begin
      let kmax = ceil_pow2 nn in
      for k = 0 to kmax - 1 do
        let step = 1 lsl k in
        for g = 0 to nn - 1 do
          (* g sends at the level its lowest set bit fires. *)
          if g land step <> 0 && g land (step - 1) = 0 then
            copy ~src:g ~dst:(g - step) ~pos:g ~len:(min step (nn - g))
        done;
        sync ()
      done;
      for k = kmax - 1 downto 0 do
        let step = 1 lsl k in
        for g = 0 to nn - 1 do
          if g land ((2 * step) - 1) = 0 && g + step < nn then
            copy ~src:g ~dst:(g + step) ~pos:0 ~len:nn
        done;
        sync ()
      done
    end
  | Doubling ->
    let pp = 1 lsl (ceil_pow2 nn) in
    let pp = if pp > nn then pp lsr 1 else pp in
    let r = nn - pp in
    if r > 0 then begin
      for g = pp to nn - 1 do
        copy ~src:g ~dst:(g - pp) ~pos:g ~len:1
      done;
      sync ()
    end;
    let step = ref 1 in
    while !step < pp do
      let s = !step in
      for g = 0 to pp - 1 do
        let partner = g lxor s in
        let base = g land lnot (s - 1) in
        copy ~src:g ~dst:partner ~pos:base ~len:s;
        let sh = max 0 (min (base + s) r - base) in
        if sh > 0 then copy ~src:g ~dst:partner ~pos:(pp + base) ~len:sh
      done;
      sync ();
      step := s lsl 1
    done;
    if r > 0 then begin
      for g = 0 to r - 1 do
        copy ~src:g ~dst:(g + pp) ~pos:0 ~len:nn
      done;
      sync ()
    end);
  Array.init nn (fun g ->
      let acc = ref 0.0 in
      for q = 0 to nn - 1 do
        acc := !acc +. G.Buffer.get bufs.(g) q
      done;
      !acc)
