open Lxu_labeling

let join_cols ?(axis = Stack_tree_desc.Descendant) ?guard
    ~(anc : Lxu_seglog.Er_node.cols) ~(desc : Lxu_seglog.Er_node.cols) () =
  let stats = { Stack_tree_desc.a_scanned = 0; d_scanned = 0; pairs = 0 } in
  let open Lxu_seglog in
  let n_a = Er_node.cols_length anc and n_d = Er_node.cols_length desc in
  (* Flat output, (a_start, d_start) per pair: the merge loop writes
     plain ints, no interval records or list cells. *)
  let out = ref (Array.make (max 64 (2 * n_d)) 0) in
  let len = ref 0 in
  let push2 x y =
    if !len + 2 > Array.length !out then begin
      let bigger = Array.make (2 * Array.length !out) 0 in
      Array.blit !out 0 bigger 0 !len;
      out := bigger
    end;
    Array.unsafe_set !out !len x;
    Array.unsafe_set !out (!len + 1) y;
    len := !len + 2
  in
  let mark = ref 0 in
  for i = 0 to n_a - 1 do
    Lxu_util.Deadline.check_opt guard;
    stats.Stack_tree_desc.a_scanned <- stats.Stack_tree_desc.a_scanned + 1;
    let a_start = anc.starts.(i) and a_stop = anc.stops.(i) in
    while !mark < n_d && Array.unsafe_get desc.starts !mark <= a_start do
      incr mark
    done;
    let j = ref !mark in
    while !j < n_d && Array.unsafe_get desc.starts !j < a_stop do
      stats.Stack_tree_desc.d_scanned <- stats.Stack_tree_desc.d_scanned + 1;
      let keep =
        Array.unsafe_get desc.stops !j <= a_stop
        &&
        match axis with
        | Stack_tree_desc.Descendant -> true
        | Stack_tree_desc.Child -> desc.levels.(!j) = anc.levels.(i) + 1
      in
      if keep then begin
        push2 a_start (Array.unsafe_get desc.starts !j);
        stats.Stack_tree_desc.pairs <- stats.Stack_tree_desc.pairs + 1
      end;
      incr j
    done
  done;
  (Array.sub !out 0 !len, stats)

let join ?(axis = Stack_tree_desc.Descendant) ?guard ~anc ~desc () =
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
          | Stack_tree_desc.Descendant -> true
          | Stack_tree_desc.Child -> d.Interval.level = a.Interval.level + 1
        in
        if keep then begin
          out := (a, d) :: !out;
          stats.Stack_tree_desc.pairs <- stats.Stack_tree_desc.pairs + 1
        end;
        incr j
      done)
    anc;
  (List.rev !out, stats)
