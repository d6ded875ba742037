let join ?(axis = Lxu_util.Axis.Desc) ?guard ~anc ~desc () =
  let stats = { Stack_tree_desc.a_scanned = 0; d_scanned = 0; pairs = 0 } in
  let out = ref [] in
  let n_d = Array.length desc in
  let mark = ref 0 in
  Array.iter
    (fun (a : Interval.t) ->
      Lxu_util.Deadline.check_opt guard;
      stats.Stack_tree_desc.a_scanned <- stats.Stack_tree_desc.a_scanned + 1;
      (* Advance the mark past descendants that precede this ancestor;
         they precede every later ancestor too. *)
      while !mark < n_d && desc.(!mark).Interval.start <= a.Interval.start do
        incr mark
      done;
      (* Scan (and possibly re-scan, for nested ancestors) the
         descendants inside [a]. *)
      let j = ref !mark in
      while !j < n_d && desc.(!j).Interval.start < a.Interval.stop do
        stats.Stack_tree_desc.d_scanned <- stats.Stack_tree_desc.d_scanned + 1;
        let d = desc.(!j) in
        let keep =
          d.Interval.stop <= a.Interval.stop
          &&
          match axis with
          | Lxu_util.Axis.Desc -> true
          | Lxu_util.Axis.Child -> d.Interval.level = a.Interval.level + 1
        in
        if keep then begin
          out := (a, d) :: !out;
          stats.Stack_tree_desc.pairs <- stats.Stack_tree_desc.pairs + 1
        end;
        incr j
      done)
    anc;
  (List.rev !out, stats)
