let join ?(axis = Lxu_util.Axis.Desc) ~anc ~desc () =
  (* Descendants by start, so each ancestor visits only those starting
     inside it; the containment and level tests are the whole check. *)
  let desc = Array.of_list desc in
  Array.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2) desc;
  let n = Array.length desc in
  let start i = let s, _, _ = desc.(i) in s in
  (* The first index whose start exceeds [x]. *)
  let first_after x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if start mid <= x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let pairs = ref [] in
  List.iter
    (fun (as_, ae, al) ->
      let i = ref (first_after as_) in
      while !i < n && start !i < ae do
        let ds, de, dl = desc.(!i) in
        let contains = as_ < ds && ae > de in
        let level_ok =
          match axis with
          | Lxu_util.Axis.Desc -> true
          | Lxu_util.Axis.Child -> dl = al + 1
        in
        if contains && level_ok then pairs := (as_, ds) :: !pairs;
        incr i
      done)
    anc;
  List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2)) !pairs
