(* Tests for the Lazy_db facade: engine equivalence (LD, LS and the
   STD baseline), maintenance operations, and statistics. *)

open Lazy_xml

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pair_list = Alcotest.(list (pair int int))

let engines = [ (Lazy_db.LD, "LD"); (Lazy_db.LS, "LS") ]

let apply_edits ~insert ~remove edits =
  List.iter
    (fun edit ->
      match edit with
      | `Ins (gp, frag) -> insert ~gp frag
      | `Del (gp, len) -> remove ~gp ~len)
    edits

let sample_edits =
  [
    `Ins (0, "<lib></lib>");
    `Ins (5, "<book><title>t</title><author>a</author></book>");
    `Ins (5, "<book><author>b</author></book>");
    `Ins (11, "<author>c</author>");
    `Del (11, 18);
  ]

let test_engines_agree () =
  let results =
    List.map
      (fun (engine, name) ->
        let db = Lazy_db.create ~engine () in
        apply_edits ~insert:(Lazy_db.insert db) ~remove:(Lazy_db.remove db) sample_edits;
        Lazy_db.check db;
        let pairs, _ = Lazy_db.query db ~anc:"book" ~desc:"author" () in
        (name, pairs))
      engines
    @
    let store = Lxu_baselines.Interval_store.create () in
    apply_edits ~insert:(Lxu_baselines.Interval_store.insert store)
      ~remove:(Lxu_baselines.Interval_store.remove store) sample_edits;
    Lxu_baselines.Interval_store.check store;
    [ ("STD", Std_ref.query store ~anc:"book" ~desc:"author") ]
  in
  match results with
  | (_, first) :: rest ->
    check_bool "some results" true (first <> []);
    List.iter (fun (name, pairs) -> Alcotest.check pair_list name first pairs) rest
  | [] -> assert false

let test_both_axes () =
  List.iter
    (fun (engine, name) ->
      let db = Lazy_db.create ~engine () in
      Lazy_db.insert db ~gp:0 "<a><a><b/></a></a>";
      let desc = Lazy_db.count db ~anc:"a" ~desc:"b" () in
      let child = Lazy_db.count db ~axis:Lxu_util.Axis.Child ~anc:"a" ~desc:"b" () in
      check_int (name ^ " desc") 2 desc;
      check_int (name ^ " child") 1 child)
    engines;
  let store = Lxu_baselines.Interval_store.create () in
  Lxu_baselines.Interval_store.insert store ~gp:0 "<a><a><b/></a></a>";
  check_int "STD desc" 2 (Std_ref.count store ~anc:"a" ~desc:"b");
  check_int "STD child" 1
    (Std_ref.count ~axis:Lxu_util.Axis.Child store ~anc:"a" ~desc:"b")

let test_counts_and_lengths () =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<a><b/></a>";
  Lazy_db.insert db ~gp:3 "<c/>";
  check_int "doc length" 15 (Lazy_db.doc_length db);
  check_int "elements" 3 (Lazy_db.element_count db);
  check_int "segments" 2 (Lazy_db.segment_count db);
  check_bool "size accounted" true (Lazy_db.size_bytes db > 0);
  Alcotest.(check string) "text" "<a><c/><b/></a>" (Lazy_db.text db)

let test_rebuild () =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<a></a>";
  Lazy_db.insert db ~gp:3 "<b/>";
  Lazy_db.insert db ~gp:3 "<b/>";
  check_int "three segments" 3 (Lazy_db.segment_count db);
  let before = Lazy_db.query db ~anc:"a" ~desc:"b" () |> fst in
  let text_before = Lazy_db.text db in
  Lazy_db.rebuild db;
  check_int "one segment" 1 (Lazy_db.segment_count db);
  Alcotest.(check string) "same text" text_before (Lazy_db.text db);
  Alcotest.check pair_list "same answers" before (fst (Lazy_db.query db ~anc:"a" ~desc:"b" ()));
  Lazy_db.check db

let test_pack_subtree () =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<r></r>";
  Lazy_db.insert db ~gp:3 "<a></a>";
  Lazy_db.insert db ~gp:6 "<b/>";
  Lazy_db.insert db ~gp:6 "<b/>";
  check_int "four segments" 4 (Lazy_db.segment_count db);
  let text_before = Lazy_db.text db in
  (* Pack the <a> subtree: "<a><b/><b/></a>" at [3, 18). *)
  Lazy_db.pack_subtree db ~gp:3 ~len:15;
  check_int "packed to two" 2 (Lazy_db.segment_count db);
  Alcotest.(check string) "same text" text_before (Lazy_db.text db);
  check_int "join intact" 2 (Lazy_db.count db ~anc:"a" ~desc:"b" ());
  Lazy_db.check db

let test_rebuild_empty () =
  let db = Lazy_db.create () in
  Lazy_db.rebuild db;
  check_int "still empty" 0 (Lazy_db.segment_count db)

let test_query_stats () =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<a></a>";
  Lazy_db.insert db ~gp:3 "<b/>";
  let pairs, { Lxu_join.Lazy_join.cross_pairs; in_pairs; _ } =
    Lazy_db.query db ~anc:"a" ~desc:"b" ()
  in
  check_int "one pair" 1 (List.length pairs);
  check_int "cross" 1 cross_pairs;
  check_int "none in-segment" 0 in_pairs

(* The reported index bytes are exactly the three parts lazyxml lists
   under them. *)
let test_size_breakdown () =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 "<a><b/><c><b/></c></a>";
  Lazy_db.insert db ~gp:3 "<b><c/></b>";
  Lazy_db.remove db ~gp:3 ~len:11;
  let log = Option.get (Lazy_db.log db) in
  let module U = Lxu_seglog.Update_log in
  check_bool "columns counted" true (U.columns_size_bytes log > 0);
  check_int "parts add up" (Lazy_db.size_bytes db)
    (U.sb_size_bytes log + U.tag_list_size_bytes log + U.columns_size_bytes log)

let suite =
  [
    Alcotest.test_case "engines agree" `Quick test_engines_agree;
    Alcotest.test_case "index bytes = sum of parts" `Quick test_size_breakdown;
    Alcotest.test_case "both axes" `Quick test_both_axes;
    Alcotest.test_case "counts and lengths" `Quick test_counts_and_lengths;
    Alcotest.test_case "rebuild" `Quick test_rebuild;
    Alcotest.test_case "pack subtree" `Quick test_pack_subtree;
    Alcotest.test_case "rebuild empty" `Quick test_rebuild_empty;
    Alcotest.test_case "query stats" `Quick test_query_stats;
  ]
