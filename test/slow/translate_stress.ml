(* One parent segment with thousands of child segments and tombstones
   between them: the shape on which a local->global translation that
   scans every child and tombstone per label turns quadratic.  Join
   answers are checked against [Naive_join] over the materialized
   document's labels and path answers against [Twig_oracle]; nothing
   here is timed. *)

open Lazy_xml
open Lxu_seglog
open Lxu_props
module Vec = Lxu_util.Vec

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
  (* Last A first, so each remove leaves the earlier extents valid. *)
  List.iteri
    (fun k (s, e, _) -> if k mod 97 = 5 then Lazy_db.remove db ~gp:s ~len:(e - s))
    (List.rev (Text_model.of_tag (Text_model.labels (Lazy_db.text db)) "A"));
  let text = Lazy_db.text db in
  let labels = Text_model.labels text in
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
      let expected =
        Naive_join.join ~anc:(Text_model.of_tag labels anc) ~desc:(Text_model.of_tag labels desc) ()
      in
      if got <> expected then
        failwith (Printf.sprintf "translate stress: %s//%s differs from the oracle" anc desc))
    [ ("A", "D"); ("r", "D"); ("A", "x"); ("D", "x"); ("r", "x") ];
  List.iter
    (fun path ->
      let steps = Path_query.parse_exn path in
      if Path_query.eval db steps <> Twig_oracle.matches text steps then
        failwith (Printf.sprintf "translate stress: %s differs from the oracle" path))
    [ "//A/D"; "/r/D"; "//r//A//x"; "/r/A/x"; "//D/x"; "//A//D/x" ];
  children
