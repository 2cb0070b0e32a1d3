type t = Time.t * Time.t

let merge intervals =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Time.compare a b)
      (List.filter (fun (a, b) -> Time.(a < b)) intervals)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
      match acc with
      | (lo, hi) :: acc_rest when Time.(fst iv <= hi) ->
        go ((lo, Time.max hi (snd iv)) :: acc_rest) rest
      | _ -> go (iv :: acc) rest)
  in
  go [] sorted

let intersect xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], _ | _, [] -> List.rev acc
    | (xa, xb) :: xrest, (ya, yb) :: yrest ->
      let lo = Time.max xa ya and hi = Time.min xb yb in
      let acc = if Time.(lo < hi) then (lo, hi) :: acc else acc in
      if Time.(xb <= yb) then go acc xrest ys else go acc xs yrest
  in
  go [] xs ys

let total intervals =
  List.fold_left (fun acc (a, b) -> Time.add acc (Time.sub b a)) Time.zero intervals

let covered intervals = total (merge intervals)

module Log = struct
  (* Each side keeps the union of what was logged as a sorted, disjoint
     cover in two flat int arrays (starts, ends), merged on insertion. An
     engine logs [\[since, now)] and its clock never goes back, so a new
     interval can only overlap the newest entries: insertion pops them in
     amortized O(1), and the cover stays as small as the union itself
     rather than growing with the number of intervals logged. *)
  type side = { mutable lo : int array; mutable hi : int array; mutable n : int }
  type t = { comp : side; comm : side }

  let side () = { lo = [||]; hi = [||]; n = 0 }
  let create () = { comp = side (); comm = side () }

  let reserve s =
    if s.n = Array.length s.lo then begin
      let cap = Stdlib.max 16 (2 * s.n) in
      let grow a =
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 s.n;
        b
      in
      s.lo <- grow s.lo;
      s.hi <- grow s.hi
    end

  let add s t0 t1 =
    let t0 = (t0 : Time.t :> int) and t1 = (t1 : Time.t :> int) in
    if t0 < t1 then begin
      (* Entries [j..n) lie wholly after the new interval; entries [i..j)
         overlap or touch it and collapse with it into one entry at [i]. *)
      let j = ref s.n in
      while !j > 0 && s.lo.(!j - 1) > t1 do decr j done;
      let i = ref !j in
      while !i > 0 && s.hi.(!i - 1) >= t0 do decr i done;
      let i = !i and j = !j in
      let lo = if i < j then Stdlib.min t0 s.lo.(i) else t0 in
      let hi = if i < j then Stdlib.max t1 s.hi.(j - 1) else t1 in
      if i = j then reserve s;
      let tail = s.n - j in
      if tail > 0 && i + 1 <> j then begin
        Array.blit s.lo j s.lo (i + 1) tail;
        Array.blit s.hi j s.hi (i + 1) tail
      end;
      s.lo.(i) <- lo;
      s.hi.(i) <- hi;
      s.n <- i + 1 + tail
    end

  let compute t ~t0 ~t1 = add t.comp t0 t1
  let comm t ~t0 ~t1 = add t.comm t0 t1

  let total s =
    let acc = ref 0 in
    for k = 0 to s.n - 1 do
      acc := !acc + (s.hi.(k) - s.lo.(k))
    done;
    !acc

  (* One pass over the two sorted covers, as [intersect] walks its lists. *)
  let overlap_total a b =
    let i = ref 0 and k = ref 0 and acc = ref 0 in
    while !i < a.n && !k < b.n do
      let lo = Stdlib.max a.lo.(!i) b.lo.(!k) and hi = Stdlib.min a.hi.(!i) b.hi.(!k) in
      if lo < hi then acc := !acc + (hi - lo);
      if a.hi.(!i) <= b.hi.(!k) then incr i else incr k
    done;
    !acc

  let comm_and_overlap t =
    let comm = Time.ns (total t.comm) in
    let ratio =
      if Time.equal comm Time.zero then 0.0
      else Time.to_sec_float (Time.ns (overlap_total t.comm t.comp)) /. Time.to_sec_float comm
    in
    (comm, ratio)

  let compute_total t = Time.ns (total t.comp)
end
