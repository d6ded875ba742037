type attr = { attr_name : string; attr_value : string; a_start : int; a_end : int }

type node =
  | Element of element
  | Text of text
  | Cdata of text
  | Comment of text
  | Pi of text

and element = {
  tag : string;
  attrs : attr list;
  mutable children : node list;
  e_start : int;
  e_end : int;
}

and text = { content : string; t_start : int; t_end : int }

let el ?(attrs = []) tag children =
  let attrs =
    List.map (fun (n, v) -> { attr_name = n; attr_value = v; a_start = -1; a_end = -1 }) attrs
  in
  Element { tag; attrs; children; e_start = -1; e_end = -1 }

let txt content = Text { content; t_start = -1; t_end = -1 }
let comment content = Comment { content; t_start = -1; t_end = -1 }

let iter_elements ?(base_level = 0) forest f =
  let rec go level = function
    | Element e ->
      f e ~level;
      List.iter (go (level + 1)) e.children
    | Text _ | Cdata _ | Comment _ | Pi _ -> ()
  in
  List.iter (go base_level) forest

let iter_labels ?(attributes = false) ?(base_level = 0) forest f =
  let rec go level = function
    | Element e ->
      f ~name:e.tag ~start:e.e_start ~stop:e.e_end ~level;
      if attributes then
        List.iter
          (fun a ->
            f ~name:("@" ^ a.attr_name) ~start:a.a_start ~stop:a.a_end ~level:(level + 1))
          e.attrs;
      List.iter (go (level + 1)) e.children
    | Text _ | Cdata _ | Comment _ | Pi _ -> ()
  in
  List.iter (go base_level) forest

let element_count forest =
  let n = ref 0 in
  iter_elements forest (fun _ ~level:_ -> incr n);
  !n

let distinct_tags forest =
  let module S = Set.Make (String) in
  let tags = ref S.empty in
  iter_elements forest (fun e ~level:_ -> tags := S.add e.tag !tags);
  S.elements !tags

let max_depth forest =
  let deepest = ref 0 in
  iter_elements forest (fun _ ~level -> if level + 1 > !deepest then deepest := level + 1);
  !deepest

let equal_attr a b = a.attr_name = b.attr_name && a.attr_value = b.attr_value

let rec equal_node a b =
  match (a, b) with
  | Element x, Element y ->
    x.tag = y.tag
    && List.length x.attrs = List.length y.attrs
    && List.for_all2 equal_attr x.attrs y.attrs
    && equal_structure x.children y.children
  | Text x, Text y | Cdata x, Cdata y | Comment x, Comment y | Pi x, Pi y ->
    x.content = y.content
  | _ -> false

and equal_structure a b =
  List.length a = List.length b && List.for_all2 equal_node a b

let find_all forest ~tag =
  let acc = ref [] in
  iter_elements forest (fun e ~level:_ -> if e.tag = tag then acc := e :: !acc);
  List.rev !acc
