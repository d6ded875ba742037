let splice text ~gp frag =
  String.sub text 0 gp ^ frag ^ String.sub text gp (String.length text - gp)

let cut text ~gp ~len =
  String.sub text 0 gp ^ String.sub text (gp + len) (String.length text - gp - len)

let labels ?(attributes = false) text =
  let acc = ref [] in
  Lxu_xml.Tree.iter_labels ~attributes (Lxu_xml.Parser.parse_fragment text)
    (fun ~name ~start ~stop ~level -> acc := (name, (start, stop, level)) :: !acc);
  List.rev !acc

let of_tag labels tag = List.filter_map (fun (n, l) -> if n = tag then Some l else None) labels

let element_extents text = List.map (fun (_, (s, e, _)) -> (s, e)) (labels text)

let valid_insert_points text frag =
  List.filter
    (fun gp -> Lxu_xml.Parser.is_well_formed_fragment (splice text ~gp frag))
    (List.init (String.length text + 1) Fun.id)
