(* The paper's STD baseline for engine-agreement tests: global interval
   labels relabelled on every update (Interval_store), joined with
   Stack-Tree-Desc — the same pairing the benchmarks build with
   [Bench_util.load_store]. *)

open Lxu_baselines
module Std = Stack_tree_desc

let join ?axis store ~anc ~desc =
  Std.join ?axis ~anc:(Interval_store.elements store ~tag:anc)
    ~desc:(Interval_store.elements store ~tag:desc) ()

(* [(anc_start, desc_start)] pairs sorted by [(desc, anc)], the order
   [Lazy_db.query] returns. *)
let query ?axis store ~anc ~desc =
  fst (join ?axis store ~anc ~desc)
  |> List.map (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start))
  |> List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2))

let count ?axis store ~anc ~desc = (snd (join ?axis store ~anc ~desc)).Std.pairs
