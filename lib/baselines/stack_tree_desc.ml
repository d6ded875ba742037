type stats = {
  mutable a_scanned : int;
  mutable d_scanned : int;
  mutable pairs : int;
}

(* The stack invariant: elements form an ancestor chain, each
   containing the one above it.  Popping everything that stops at or
   before the next processed start keeps the invariant, because labels
   of one document properly nest. *)
let join ?(axis = Lxu_util.Axis.Desc) ~anc ~desc () =
  let stats = { a_scanned = 0; d_scanned = 0; pairs = 0 } in
  let out = ref [] in
  let stack = ref [] in
  let n_a = Array.length anc and n_d = Array.length desc in
  let ia = ref 0 and id = ref 0 in
  while !id < n_d && (!ia < n_a || !stack <> []) do
    let d = desc.(!id) in
    let a_start = if !ia < n_a then anc.(!ia).Interval.start else max_int in
    if a_start < d.Interval.start then begin
      let a = anc.(!ia) in
      while (match !stack with top :: _ -> top.Interval.stop <= a.Interval.start | [] -> false) do
        stack := List.tl !stack
      done;
      stack := a :: !stack;
      incr ia;
      stats.a_scanned <- stats.a_scanned + 1
    end
    else begin
      while (match !stack with top :: _ -> top.Interval.stop <= d.Interval.start | [] -> false) do
        stack := List.tl !stack
      done;
      (* Every remaining stack entry contains [d]. *)
      List.iter
        (fun a ->
          match axis with
          | Lxu_util.Axis.Desc ->
            out := (a, d) :: !out;
            stats.pairs <- stats.pairs + 1
          | Lxu_util.Axis.Child ->
            if d.Interval.level = a.Interval.level + 1 then begin
              out := (a, d) :: !out;
              stats.pairs <- stats.pairs + 1
            end)
        !stack;
      incr id;
      stats.d_scanned <- stats.d_scanned + 1
    end
  done;
  (List.rev !out, stats)
