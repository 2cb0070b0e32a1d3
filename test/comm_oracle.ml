(* The span-based reference for comm accounting: a run's compute time, comm
   time and overlap read off the spans of its trace. The engine's busy log
   ([Intervals.Log], what [Measure] reports) is tested against it. *)

module E = Cpufree_engine
module Time = E.Time
module I = E.Intervals

(* Merged intervals of all spans of a kind, across all lanes. *)
let cover trace kind =
  I.merge
    (List.filter_map
       (fun s -> if s.E.Trace.kind = kind then Some (s.E.Trace.t0, s.E.Trace.t1) else None)
       (E.Trace.spans trace))

let comm_time trace = I.total (cover trace E.Trace.Communication)
let compute_time trace = I.total (cover trace E.Trace.Compute)

(* Fraction of comm wall-clock hidden under compute; 0 without comm. *)
let overlap_ratio trace =
  let comm = cover trace E.Trace.Communication in
  let comm_total = I.total comm in
  if Time.equal comm_total Time.zero then 0.0
  else
    Time.to_sec_float (I.total (I.intersect comm (cover trace E.Trace.Compute)))
    /. Time.to_sec_float comm_total

let comm_fraction trace ~total =
  if Time.equal total Time.zero then 0.0
  else Time.to_sec_float (comm_time trace) /. Time.to_sec_float total
