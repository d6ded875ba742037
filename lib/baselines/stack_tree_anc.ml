(* Completed pair runs are kept as a rope and flattened exactly once at
   the end: popping must not re-copy inherited lists, or deep ancestor
   chains turn the join quadratic in the output size. *)
type rope = Leaf of (Interval.t * Interval.t) list  (* in order *) | Cat of rope list

(* Each stack entry accumulates its own pairs ([self_rev], newest
   first) plus the completed chunks inherited from popped inner
   ancestors.  An inner ancestor starts later than everything below
   it, so its chunk belongs after every pair the node below will ever
   produce itself — hence self-then-inherit on flush. *)
type entry = {
  iv : Interval.t;
  mutable self_rev : (Interval.t * Interval.t) list;
  mutable inh_rev : rope list;
}

let chunk_of e = Cat (Leaf (List.rev e.self_rev) :: List.rev e.inh_rev)

(* In-order flatten; every leaf list is copied exactly once. *)
let flatten rope =
  let rec go rope acc =
    match rope with Leaf l -> l @ acc | Cat rs -> List.fold_right go rs acc
  in
  go rope []

let join ?(axis = Lxu_util.Axis.Desc) ~anc ~desc () =
  let stats = { Stack_tree_desc.a_scanned = 0; d_scanned = 0; pairs = 0 } in
  let out_rev = ref [] in
  let stack = ref [] in
  let pop () =
    match !stack with
    | [] -> ()
    | top :: rest ->
      stack := rest;
      let chunk = chunk_of top in
      (match rest with
      | below :: _ -> below.inh_rev <- chunk :: below.inh_rev
      | [] -> out_rev := chunk :: !out_rev)
  in
  let n_a = Array.length anc and n_d = Array.length desc in
  let ia = ref 0 and id = ref 0 in
  while !id < n_d && (!ia < n_a || !stack <> []) do
    let d = desc.(!id) in
    let a_start = if !ia < n_a then anc.(!ia).Interval.start else max_int in
    if a_start < d.Interval.start then begin
      let a = anc.(!ia) in
      while (match !stack with top :: _ -> top.iv.Interval.stop <= a.Interval.start | [] -> false) do
        pop ()
      done;
      stack := { iv = a; self_rev = []; inh_rev = [] } :: !stack;
      incr ia;
      stats.Stack_tree_desc.a_scanned <- stats.Stack_tree_desc.a_scanned + 1
    end
    else begin
      while (match !stack with top :: _ -> top.iv.Interval.stop <= d.Interval.start | [] -> false) do
        pop ()
      done;
      List.iter
        (fun e ->
          let keep =
            match axis with
            | Lxu_util.Axis.Desc -> true
            | Lxu_util.Axis.Child -> d.Interval.level = e.iv.Interval.level + 1
          in
          if keep then begin
            e.self_rev <- (e.iv, d) :: e.self_rev;
            stats.Stack_tree_desc.pairs <- stats.Stack_tree_desc.pairs + 1
          end)
        !stack;
      incr id;
      stats.Stack_tree_desc.d_scanned <- stats.Stack_tree_desc.d_scanned + 1
    end
  done;
  while !stack <> [] do
    pop ()
  done;
  (flatten (Cat (List.rev !out_rev)), stats)
