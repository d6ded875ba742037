let join ?(axis = Lxu_util.Axis.Desc) ~anc ~desc () =
  let pairs = ref [] in
  List.iter
    (fun (as_, ae, al) ->
      List.iter
        (fun (ds, de, dl) ->
          let contains = as_ < ds && ae > de in
          let level_ok =
            match axis with
            | Lxu_util.Axis.Desc -> true
            | Lxu_util.Axis.Child -> dl = al + 1
          in
          if contains && level_ok then pairs := (as_, ds) :: !pairs)
        desc)
    anc;
  List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2)) !pairs
