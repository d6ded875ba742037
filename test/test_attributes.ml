(* Attributes as subelements (§1 of the paper): offset capture in the
   parser, indexing behind the [index_attributes] flag, and querying
   via joins and path expressions. *)

open Lazy_xml

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let path_count db path = Path_query.count db (Path_query.parse_exn path)

let test_parser_attr_offsets () =
  (*         0         1         2    *)
  (*         0123456789012345678901234 *)
  let s = "<a id=\"x\" lang='en'><b/></a>" in
  let e =
    match Lxu_xml.Parser.parse_fragment s with
    | [ Lxu_xml.Tree.Element e ] -> e
    | _ -> Alcotest.fail "parse"
  in
  match e.Lxu_xml.Tree.attrs with
  | [ id; lang ] ->
    check_int "id start" 3 id.Lxu_xml.Tree.a_start;
    check_int "id end" 9 id.Lxu_xml.Tree.a_end;
    check_string "id slice" "id=\"x\"" (String.sub s 3 6);
    check_int "lang start" 10 lang.Lxu_xml.Tree.a_start;
    check_int "lang end" 19 lang.Lxu_xml.Tree.a_end;
    check_string "lang slice" "lang='en'" (String.sub s 10 9)
  | _ -> Alcotest.fail "expected two attributes"

let test_iter_labels () =
  let nodes = Lxu_xml.Parser.parse_fragment "<a id=\"1\"><b k=\"v\"/></a>" in
  let seen = ref [] in
  Lxu_xml.Tree.iter_labels ~attributes:true nodes (fun ~name ~start:_ ~stop:_ ~level ->
      seen := (name, level) :: !seen);
  Alcotest.(check (list (pair string int)))
    "labels with attributes"
    [ ("a", 0); ("@id", 1); ("b", 1); ("@k", 2) ]
    (List.rev !seen);
  (* Default: elements only. *)
  let plain = ref 0 in
  Lxu_xml.Tree.iter_labels nodes (fun ~name:_ ~start:_ ~stop:_ ~level:_ -> incr plain);
  check_int "elements only" 2 !plain

let doc = "<people><person id=\"p1\"><name first=\"A\"/></person><person id=\"p2\"/></people>"

let test_query_attributes () =
  List.iter
    (fun engine ->
      let db = Lazy_db.create ~engine ~index_attributes:true () in
      Lazy_db.insert db ~gp:0 doc;
      check_int "person//@id not nested under person... direct" 2
        (Lazy_db.count db ~anc:"person" ~desc:"@id" ());
      check_int "people//@first" 1 (Lazy_db.count db ~anc:"people" ~desc:"@first" ());
      (* The attribute is a direct child of its element. *)
      check_int "person/@id (child axis)" 2
        (Lazy_db.count db ~axis:Lxu_util.Axis.Child ~anc:"person" ~desc:"@id" ());
      check_int "people/@id is not a child" 0
        (Lazy_db.count db ~axis:Lxu_util.Axis.Child ~anc:"people" ~desc:"@id" ()))
    [ Lazy_db.LD; Lazy_db.LS ];
  (* The STD baseline indexes attributes the same way. *)
  let store = Lxu_baselines.Interval_store.create ~index_attributes:true () in
  Lxu_baselines.Interval_store.insert store ~gp:0 doc;
  let child = Lxu_util.Axis.Child in
  check_int "STD person//@id" 2 (Std_ref.count store ~anc:"person" ~desc:"@id");
  check_int "STD people//@first" 1 (Std_ref.count store ~anc:"people" ~desc:"@first");
  check_int "STD person/@id" 2 (Std_ref.count ~axis:child store ~anc:"person" ~desc:"@id");
  check_int "STD people/@id" 0 (Std_ref.count ~axis:child store ~anc:"people" ~desc:"@id")

let test_attributes_off_by_default () =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 doc;
  check_int "no attribute records" 0 (Lazy_db.count db ~anc:"person" ~desc:"@id" ())

let test_path_query_attributes () =
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 doc;
  check_int "//person/@id" 2 (path_count db "//person/@id");
  check_int "//people//@first" 1 (path_count db "//people//@first")

let test_attributes_across_segments () =
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 "<people></people>";
  Lazy_db.insert db ~gp:8 "<person id=\"p9\"/>";
  check_int "cross-segment attribute join" 1 (Lazy_db.count db ~anc:"people" ~desc:"@id" ());
  Lazy_db.check db;
  (* Removal of the segment removes its attribute records too. *)
  Lazy_db.remove db ~gp:8 ~len:17;
  check_int "gone" 0 (Lazy_db.count db ~anc:"people" ~desc:"@id" ());
  Lazy_db.check db

let test_rebuild_preserves_flag () =
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 doc;
  Lazy_db.rebuild db;
  check_int "still queryable" 2 (Lazy_db.count db ~anc:"person" ~desc:"@id" ());
  check_bool "flag survives" true
    (Lxu_seglog.Update_log.indexes_attributes (Option.get (Lazy_db.log db)))

let suite =
  [
    Alcotest.test_case "parser attr offsets" `Quick test_parser_attr_offsets;
    Alcotest.test_case "iter_labels" `Quick test_iter_labels;
    Alcotest.test_case "query attributes (all engines)" `Quick test_query_attributes;
    Alcotest.test_case "off by default" `Quick test_attributes_off_by_default;
    Alcotest.test_case "path queries on attributes" `Quick test_path_query_attributes;
    Alcotest.test_case "attributes across segments" `Quick test_attributes_across_segments;
    Alcotest.test_case "rebuild preserves flag" `Quick test_rebuild_preserves_flag;
  ]

let test_attribute_in_predicate () =
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 doc;
  check_int "person[@id]" 2 (path_count db "//person[@id]");
  check_int "person[name[@first]]" 1 (path_count db "//person[name[@first]]");
  check_int "person[@nosuch]" 0 (path_count db "//person[@nosuch]")

let test_attribute_tombstoned () =
  (* Deleting an element removes its attribute records too (they lie
     inside its extent). *)
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 doc;
  let before = Lazy_db.count db ~anc:"people" ~desc:"@id" () in
  (* Remove the second person: "<person id=\"p2\"/>" = 17 bytes before
     "</people>". *)
  let text = Lazy_db.text db in
  let needle = "<person id=\"p2\"/>" in
  let n = String.length needle in
  let rec find i = if String.sub text i n = needle then i else find (i + 1) in
  Lazy_db.remove db ~gp:(find 0) ~len:n;
  check_int "one fewer @id" (before - 1) (Lazy_db.count db ~anc:"people" ~desc:"@id" ());
  Lazy_db.check db

let suite =
  suite
  @ [
      Alcotest.test_case "attribute in predicate" `Quick test_attribute_in_predicate;
      Alcotest.test_case "attribute tombstoned" `Quick test_attribute_tombstoned;
    ]
