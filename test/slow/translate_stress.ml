(* One parent segment with thousands of child segments and tombstones
   between them: the shape on which a local->global translation that
   scans every child and tombstone per label turns quadratic.  Join and
   path answers are checked against a fresh parse of the materialized
   document; nothing here is timed. *)

open Lazy_xml
open Lxu_seglog
module Vec = Lxu_util.Vec

(* Calls [f e ancestors] on every element of [text], ancestors
   innermost first. *)
let iter_with_ancestors text f =
  let rec walk ancs = function
    | Lxu_xml.Tree.Element e ->
      f e ancs;
      List.iter (walk (e :: ancs)) e.Lxu_xml.Tree.children
    | _ -> ()
  in
  List.iter (walk []) (Lxu_xml.Parser.parse_fragment text)

let oracle_pairs text ~anc ~desc =
  let acc = ref [] in
  iter_with_ancestors text (fun e ancs ->
      if e.Lxu_xml.Tree.tag = desc then
        List.iter
          (fun (a : Lxu_xml.Tree.element) ->
            if a.tag = anc then acc := (a.e_start, e.Lxu_xml.Tree.e_start) :: !acc)
          ancs);
  List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2)) !acc

(* Final-step extents of a predicate-free path: an element matches
   when its ancestor chain can be assigned to the earlier steps. *)
let oracle_path text path =
  let steps = Array.of_list (Path_query.parse_exn path) in
  let last = Array.length steps - 1 in
  (* Can an element matching step [i], with ancestors [ancs], complete
     steps [0..i]? *)
  let rec fits i ancs =
    let axis = steps.(i).Path_query.axis in
    if i = 0 then axis = Path_query.Desc || ancs = []
    else begin
      let up_ok (p : Lxu_xml.Tree.element) up = p.tag = steps.(i - 1).Path_query.tag && fits (i - 1) up in
      match (axis, ancs) with
      | _, [] -> false
      | Path_query.Child, p :: up -> up_ok p up
      | Path_query.Desc, _ ->
        let rec any = function [] -> false | p :: up -> up_ok p up || any up in
        any ancs
    end
  in
  let acc = ref [] in
  iter_with_ancestors text (fun e ancs ->
      if e.Lxu_xml.Tree.tag = steps.(last).Path_query.tag && fits last ancs then
        acc := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end) :: !acc);
  List.sort compare !acc

let find_all text needle =
  let n = String.length needle in
  let acc = ref [] in
  for i = String.length text - n downto 0 do
    if String.sub text i n = needle then acc := i :: !acc
  done;
  !acc

let run ~groups =
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  let group = "<A><x/></A>" in
  let g = String.length group in
  Lazy_db.insert db ~gp:0 ("<r>" ^ String.concat "" (List.init groups (fun _ -> group)) ^ "</r>");
  (* Hook children in descending position order, so every position is
     still an offset of the original text: one inside each A (after
     "<A>"), some exactly at an A's start, some right before "</A>"
     (the stop of its <x/>).  One batch keeps the set-up cheap. *)
  Lazy_db.insert_many db
    (List.concat
       (List.init groups (fun j ->
            let i = groups - 1 - j in
            let at = 3 + (g * i) in
            (if i mod 5 = 0 then [ (at + 7, "<D/>") ] else [])
            @ [ (at + 3, "<D><x/></D>") ]
            @ if i mod 3 = 0 then [ (at, "<D/>") ] else [])));
  (* Tombstone the parent between its children: drop every sixteenth
     <x/> (most sit in the parent's own text, the rest in the hooked
     <D> segments), then a few whole A elements with the child segments
     inside them. *)
  let text = Lazy_db.text db in
  List.iteri
    (fun k pos -> if k mod 16 = 1 then Lazy_db.remove db ~gp:pos ~len:4)
    (List.rev (find_all text "<x/>"));
  let a_extents = ref [] in
  iter_with_ancestors (Lazy_db.text db) (fun e _ ->
      if e.Lxu_xml.Tree.tag = "A" then a_extents := (e.e_start, e.e_end) :: !a_extents);
  List.iteri
    (fun k (s, e) -> if k mod 97 = 5 then Lazy_db.remove db ~gp:s ~len:(e - s))
    !a_extents;
  let text = Lazy_db.text db in
  let parent = Vec.get (Update_log.root (Option.get (Lazy_db.log db))).Er_node.children 0 in
  let children = Vec.length parent.Er_node.children in
  let tombstones = Vec.length parent.Er_node.tombstones in
  if children < 5_000 || tombstones = 0 then
    failwith
      (Printf.sprintf "translate stress: parent has %d children, %d tombstones" children
         tombstones);
  List.iter
    (fun (anc, desc) ->
      let got, _ = Lazy_db.query db ~anc ~desc () in
      if got <> oracle_pairs text ~anc ~desc then
        failwith (Printf.sprintf "translate stress: %s//%s differs from the oracle" anc desc))
    [ ("A", "D"); ("r", "D"); ("A", "x"); ("D", "x"); ("r", "x") ];
  List.iter
    (fun path ->
      if Path_query.eval_string db path <> oracle_path text path then
        failwith (Printf.sprintf "translate stress: %s differs from the oracle" path))
    [ "//A/D"; "/r/D"; "//r//A//x"; "/r/A/x"; "//D/x"; "//A//D/x" ];
  children
