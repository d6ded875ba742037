(* An independent twig oracle evaluated directly on the parsed tree:
   each step walks child or descendant elements of the current anchor,
   and a predicate holds when its relative path reaches at least one
   element.  With [~attributes:true] every attribute is a leaf child
   named "@name" spanning its [name="value"] bytes, as the stores
   index it. *)

open Lazy_xml

type item = { tag : string; start : int; stop : int; kids : item list }

let rec item ~attributes (e : Lxu_xml.Tree.element) =
  let attrs =
    if not attributes then []
    else
      List.map
        (fun (a : Lxu_xml.Tree.attr) ->
          { tag = "@" ^ a.attr_name; start = a.a_start; stop = a.a_end; kids = [] })
        e.attrs
  in
  let elems =
    List.filter_map
      (function Lxu_xml.Tree.Element c -> Some (item ~attributes c) | _ -> None)
      e.children
  in
  { tag = e.tag; start = e.e_start; stop = e.e_end; kids = attrs @ elems }

(* Final-step matches of [steps] over [text], as sorted extents. *)
let matches ?(attributes = false) text (steps : Path_query.t) =
  let roots =
    List.filter_map
      (function Lxu_xml.Tree.Element e -> Some (item ~attributes e) | _ -> None)
      (Lxu_xml.Parser.parse_fragment text)
  in
  let rec descendants e = List.concat_map (fun c -> c :: descendants c) e.kids in
  let all = List.concat_map (fun r -> r :: descendants r) roots in
  (* Items reachable from [anchor] (None = the virtual root) via the
     relative path [steps]. *)
  let rec reach anchor steps =
    match steps with
    | [] -> Option.to_list anchor
    | (s : Path_query.step) :: rest ->
      let pool =
        match (anchor, s.axis) with
        | None, Path_query.Desc -> all
        | None, Path_query.Child -> roots
        | Some e, Path_query.Desc -> descendants e
        | Some e, Path_query.Child -> e.kids
      in
      List.filter
        (fun e -> e.tag = s.tag && List.for_all (fun p -> reach (Some e) p <> []) s.predicates)
        pool
      |> List.concat_map (fun e -> reach (Some e) rest)
  in
  reach None steps |> List.map (fun e -> (e.start, e.stop)) |> List.sort_uniq compare
