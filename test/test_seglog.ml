(* Tests for the update log: segment insertion/removal (Figures 5 and
   7), coordinates, tag-list and element-column maintenance.  The gold
   oracle is materialization: the log must reconstruct exactly the text
   that naive string editing produces, and its derived global element
   labels must match a fresh parse of that text. *)

open Lxu_seglog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let gp log n = Seg_map.gp (Update_log.seg_map log) n

(* The naive reference: the same edits applied to a plain string, and
   labels from a fresh parse of it — the ground truth for
   [global_elements]. *)
module Text_model = Lxu_props.Text_model

let log_agrees_with_text log text =
  Update_log.check log;
  let materialized = Update_log.materialize log in
  if materialized <> text then
    Alcotest.failf "materialize mismatch:\n  log : %s\n  text: %s" materialized text;
  check_int "doc_length" (String.length text) (Update_log.doc_length log);
  (* A range reads the same bytes as the whole text: every start, with
     the rest of the text and with a short span. *)
  let n = String.length text in
  for gp = 0 to n do
    List.iter
      (fun len ->
        let got = Update_log.materialize_range log ~gp ~len in
        if got <> String.sub text gp len then
          Alcotest.failf "materialize_range ~gp:%d ~len:%d: %S, expected %S" gp len got
            (String.sub text gp len))
      [ n - gp; min 5 (n - gp) ]
  done;
  let tags =
    match Lxu_xml.Parser.parse_fragment_result text with
    | Ok nodes -> Lxu_xml.Tree.distinct_tags nodes
    | Error _ -> Alcotest.fail "reference text is ill-formed"
  in
  let labels = Text_model.labels text in
  List.iter
    (fun tag ->
      let expected = Text_model.of_tag labels tag in
      let got = Update_log.global_elements log ~tag in
      if got <> expected then
        Alcotest.failf "global labels of <%s> differ:\n  log : %s\n  text: %s" tag
          (String.concat "; " (List.map (fun (a, b, l) -> Printf.sprintf "(%d,%d,%d)" a b l) got))
          (String.concat "; " (List.map (fun (a, b, l) -> Printf.sprintf "(%d,%d,%d)" a b l) expected)))
    tags

(* --- basic insertion ------------------------------------------------ *)

let test_empty () =
  let log = Update_log.create () in
  check_int "doc length" 0 (Update_log.doc_length log);
  check_int "segments" 0 (Update_log.segment_count log);
  check_int "elements" 0 (Update_log.element_count log);
  check_string "materialize" "" (Update_log.materialize log);
  Update_log.check log

let test_single_segment () =
  let log = Update_log.create () in
  let sid = Update_log.insert log ~gp:0 "<a><b/></a>" in
  check_int "sid" 1 sid;
  check_int "segments" 1 (Update_log.segment_count log);
  check_int "elements" 2 (Update_log.element_count log);
  log_agrees_with_text log "<a><b/></a>";
  let n = Update_log.node_of_sid log sid in
  check_int "gp" 0 (gp log n);
  check_int "len" 11 n.Er_node.len;
  check_int "lp" 0 n.Er_node.lp;
  check_int "base level" 0 (Array.length n.Er_node.ctx)

let test_nested_insertion () =
  let log = Update_log.create () in
  let s1 = Update_log.insert log ~gp:0 "<a><b></b></a>" in
  (* Insert inside <b>: position 6 (after "<a><b>"). *)
  let s2 = Update_log.insert log ~gp:6 "<c>x</c>" in
  log_agrees_with_text log "<a><b><c>x</c></b></a>";
  let n1 = Update_log.node_of_sid log s1 in
  let n2 = Update_log.node_of_sid log s2 in
  check_int "s1 len grew" 22 n1.Er_node.len;
  check_int "s2 gp" 6 (gp log n2);
  check_int "s2 lp" 6 n2.Er_node.lp;
  check_int "s2 base level" 2 (Array.length n2.Er_node.ctx);
  check_bool "s2 child of s1" true
    (n2.Er_node.path = [| 0; s1; s2 |]);
  (* The <c> element must report absolute level 2. *)
  (match Update_log.global_elements log ~tag:"c" with
  | [ (6, 14, 2) ] -> ()
  | other ->
    Alcotest.failf "unexpected c labels: %s"
      (String.concat ";" (List.map (fun (a, b, l) -> Printf.sprintf "(%d,%d,%d)" a b l) other)))

let test_sibling_insertion_shifts () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  (* Two siblings inserted at the same point inside <a>; the second
     lands before the first. *)
  let sx = Update_log.insert log ~gp:3 "<x/>" in
  let sy = Update_log.insert log ~gp:3 "<y/>" in
  log_agrees_with_text log "<a><y/><x/></a>";
  let nx = Update_log.node_of_sid log sx in
  let ny = Update_log.node_of_sid log sy in
  check_int "y gp" 3 (gp log ny);
  check_int "x shifted" 7 (gp log nx);
  (* Local positions never change: both were inserted at local 3. *)
  check_int "x lp" 3 nx.Er_node.lp;
  check_int "y lp" 3 ny.Er_node.lp

let test_local_position_after_left_sibling () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a>0123456789</a>");
  let s1 = Update_log.insert log ~gp:5 "<b/>" in
  (* Insert after <b/> in the text: global 9+4=... choose position 12
     (global), which is local 8 of the <a> segment. *)
  let s2 = Update_log.insert log ~gp:12 "<c/>" in
  log_agrees_with_text log "<a>01<b/>234<c/>56789</a>";
  let n1 = Update_log.node_of_sid log s1 in
  let n2 = Update_log.node_of_sid log s2 in
  check_int "b lp" 5 n1.Er_node.lp;
  (* Definition 2: lp = gp - parent.gp - sum of left sibling lengths. *)
  check_int "c lp" 8 n2.Er_node.lp

let test_insert_into_empty_doc_multiple_roots () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a/>");
  ignore (Update_log.insert log ~gp:4 "<b/>");
  ignore (Update_log.insert log ~gp:0 "<c/>");
  log_agrees_with_text log "<c/><a/><b/>"

let test_insert_errors () =
  let log = Update_log.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Update_log.insert: empty segment")
    (fun () -> ignore (Update_log.insert log ~gp:0 ""));
  Alcotest.check_raises "oob" (Invalid_argument "Update_log.insert: gp out of bounds")
    (fun () -> ignore (Update_log.insert log ~gp:1 "<a/>"));
  check_bool "ill-formed rejected" true
    (match Update_log.insert log ~gp:0 "<a>" with
    | exception Lxu_xml.Parser.Parse_error _ -> true
    | _ -> false);
  (* A failed parse must not corrupt the log. *)
  Update_log.check log;
  check_int "still empty" 0 (Update_log.segment_count log)

(* --- tag-list and element columns ----------------------------------- *)

let test_tag_list_paths () =
  let log = Update_log.create () in
  let s1 = Update_log.insert log ~gp:0 "<a><b/></a>" in
  let s2 = Update_log.insert log ~gp:3 "<a><b/><b/></a>" in
  let entries = Update_log.segments_for_tag log ~tag:"b" in
  check_int "two segments hold b" 2 (Array.length entries);
  (* Sorted by gp: s2 (gp 3) is inside s1 (gp 0). *)
  check_int "first is s1" s1 entries.(0).Tag_list.sid;
  check_int "second is s2" s2 entries.(1).Tag_list.sid;
  check_bool "path of s2" true (entries.(1).Tag_list.path = [| 0; s1; s2 |]);
  check_int "count of b in s2" 2 entries.(1).Tag_list.count;
  let tid = Option.get (Tag_registry.find (Update_log.registry log) "b") in
  let elems = Er_node.cols (Update_log.node_of_sid log s2) ~tid in
  check_int "b records in s2" 2 (Er_node.cols_length elems)

let test_unknown_tag () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a/>");
  check_int "no entries" 0 (Array.length (Update_log.segments_for_tag log ~tag:"zz"))

(* --- removal --------------------------------------------------------- *)

let test_remove_own_text () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/><c/></a>");
  (* Remove "<b/>" = [3, 7): inside the only segment. *)
  Update_log.remove log ~gp:3 ~len:4;
  log_agrees_with_text log "<a><c/></a>";
  check_int "segments" 1 (Update_log.segment_count log);
  check_int "elements" 2 (Update_log.element_count log)

let test_remove_whole_segment () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  let s2 = Update_log.insert log ~gp:3 "<b>xx</b>" in
  Update_log.remove log ~gp:3 ~len:9;
  log_agrees_with_text log "<a></a>";
  check_int "segments" 1 (Update_log.segment_count log);
  check_bool "s2 gone" true
    (match Update_log.node_of_sid log s2 with exception Not_found -> true | _ -> false);
  check_int "b entries gone" 0 (Array.length (Update_log.segments_for_tag log ~tag:"b"))

let test_remove_with_descendants () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  ignore (Update_log.insert log ~gp:3 "<b></b>");
  ignore (Update_log.insert log ~gp:6 "<c/>");
  (* doc: <a><b><c/></b></a>; removing <b>...</b> kills c too. *)
  Update_log.remove log ~gp:3 ~len:11;
  log_agrees_with_text log "<a></a>";
  check_int "segments" 1 (Update_log.segment_count log)

let test_remove_left_intersection () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/><c/></a>");
  let s2 = Update_log.insert log ~gp:7 "<d/><e/>" in
  (* doc: <a><b/><d/><e/><c/></a>.  Remove "<e/><c/>" = [11, 19):
     left-intersects segment s2 (loses its tail <e/>) and removes own
     text of s1. *)
  Update_log.remove log ~gp:11 ~len:8;
  log_agrees_with_text log "<a><b/><d/></a>";
  let n2 = Update_log.node_of_sid log s2 in
  check_int "s2 shrank" 4 n2.Er_node.len;
  check_int "s2 kept gp" 7 (gp log n2)

let test_remove_right_intersection () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/><c/></a>");
  let s2 = Update_log.insert log ~gp:7 "<d/><e/>" in
  (* doc: <a><b/><d/><e/><c/></a>.  Remove "<b/><d/>" = [3, 11):
     right-intersects s2 (loses its head <d/>). *)
  Update_log.remove log ~gp:3 ~len:8;
  log_agrees_with_text log "<a><e/><c/></a>";
  let n2 = Update_log.node_of_sid log s2 in
  check_int "s2 shrank" 4 n2.Er_node.len;
  check_int "s2 gp moved to removal start" 3 (gp log n2);
  (* The surviving <e/> keeps its virtual label [4,8) inside s2. *)
  let tid = Option.get (Tag_registry.find (Update_log.registry log) "e") in
  (match Er_node.cols (Update_log.node_of_sid log s2) ~tid with
  | { Er_node.starts = [| start |]; stops = [| stop |]; _ } ->
    check_int "e virtual start unchanged" 4 start;
    check_int "e virtual stop unchanged" 8 stop
  | _ -> Alcotest.fail "expected exactly one e record")

let test_remove_figure6_combination () =
  (* Mirrors Figure 6: one removal that is contained in a segment,
     fully covers others, and left/right-intersects more. *)
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<r></r>");
  ignore (Update_log.insert log ~gp:3 "<s><t/><u/></s>");
  ignore (Update_log.insert log ~gp:6 "<v/>");
  ignore (Update_log.insert log ~gp:22 "<w><x/></w>");
  let text = "<r><s><v/><t/><u/></s><w><x/></w></r>" in
  log_agrees_with_text log text;
  (* Remove "<t/><u/></s><w><x/>" — ill-formed; instead remove
     "<t/><u/>" = [10, 18): contained in s, after v. *)
  Update_log.remove log ~gp:10 ~len:8;
  log_agrees_with_text log "<r><s><v/></s><w><x/></w></r>";
  (* Now remove the whole of s and w: "<s><v/></s><w><x/></w>" =
     [3, 25). *)
  Update_log.remove log ~gp:3 ~len:22;
  log_agrees_with_text log "<r></r>"

let test_remove_errors () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/></a>");
  Alcotest.check_raises "oob" (Invalid_argument "Update_log.remove: range out of bounds")
    (fun () -> Update_log.remove log ~gp:5 ~len:100);
  Alcotest.check_raises "zero len" (Invalid_argument "Update_log.remove: non-positive length")
    (fun () -> Update_log.remove log ~gp:0 ~len:0);
  Alcotest.check_raises "splits element"
    (Invalid_argument "Update_log.remove: range splits an element (not a well-formed fragment)")
    (fun () -> Update_log.remove log ~gp:3 ~len:2);
  (* Removal is atomic: the rejected edit left the log untouched. *)
  log_agrees_with_text log "<a><b/></a>";
  (* A rejection nested below a child segment, too. *)
  ignore (Update_log.insert log ~gp:3 "<c><d/>x</c>");
  Alcotest.check_raises "nested split"
    (Invalid_argument "Update_log.remove: range splits an element (not a well-formed fragment)")
    (fun () -> Update_log.remove log ~gp:7 ~len:5);
  log_agrees_with_text log "<a><c><d/>x</c><b/></a>"

let test_remove_reinsert_into_gap () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/><c/></a>");
  Update_log.remove log ~gp:3 ~len:4;
  (* Gap where <b/> was; insert a new segment right there. *)
  ignore (Update_log.insert log ~gp:3 "<d/>");
  log_agrees_with_text log "<a><d/><c/></a>"

(* --- modes ----------------------------------------------------------- *)

let test_lazy_static_mode () =
  let log = Update_log.create ~mode:Update_log.Lazy_static () in
  ignore (Update_log.insert log ~gp:0 "<a><b/></a>");
  ignore (Update_log.insert log ~gp:3 "<b>x</b>");
  (* Tag list is dirty before preparation. *)
  check_bool "dirty" true (Tag_list.is_dirty (Update_log.tag_list log));
  Update_log.prepare_for_query log;
  check_bool "clean" false (Tag_list.is_dirty (Update_log.tag_list log));
  let entries = Update_log.segments_for_tag log ~tag:"b" in
  check_int "both segments" 2 (Array.length entries);
  log_agrees_with_text log "<a><b>x</b><b/></a>"

let test_metrics () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  ignore (Update_log.insert log ~gp:3 "<b/>");
  ignore (Update_log.insert log ~gp:3 "<c/>");
  let m = Update_log.metrics log in
  check_int "inserts" 3 m.Update_log.segments_inserted;
  check_bool "shifts counted" true (m.Update_log.gp_shifts > 0)

(* --- size accounting -------------------------------------------------- *)

let test_sizes_grow () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  let s1 = Update_log.size_bytes log in
  for i = 0 to 9 do
    ignore (Update_log.insert log ~gp:(3 + (4 * i)) "<b/>")
  done;
  let s2 = Update_log.size_bytes log in
  check_bool "log grew" true (s2 > s1);
  check_bool "sb part" true (Update_log.sb_size_bytes log > 0);
  check_bool "tag-list part" true (Update_log.tag_list_size_bytes log > 0)

(* --- the oracle property --------------------------------------------- *)

(* Random edit schedules over a growing document, mirrored on a plain
   string.  Insertions pick any split point that keeps the fragment
   well-formed; removals pick the extent of a random element (always a
   well-formed range). *)

let fragments =
  [|
    "<a/>";
    "<b>text</b>";
    "<c><a/><b/></c>";
    "<d k=\"v\">mixed<a/>tail</d>";
    "<e><e><e/></e></e>";
    "<f/><g/>";
  |]

type edit = Ins of int * int | Del of int

let edit_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun a b -> Ins (a, b)) (int_bound 10_000) (int_bound (Array.length fragments - 1));
        map (fun a -> Del a) (int_bound 10_000);
      ])

let run_schedule mode edits =
  let log = Update_log.create ~mode () in
  let text = ref "" in
  List.iter
    (fun edit ->
      match edit with
      | Ins (pick, fi) ->
        let frag = fragments.(fi) in
        let points = Text_model.valid_insert_points !text frag in
        if points <> [] then begin
          let gp = List.nth points (pick mod List.length points) in
          ignore (Update_log.insert log ~gp frag);
          text := Text_model.splice !text ~gp frag
        end
      | Del pick ->
        let extents = Text_model.element_extents !text in
        if extents <> [] then begin
          let s, e = List.nth extents (pick mod List.length extents) in
          Update_log.remove log ~gp:s ~len:(e - s);
          text := Text_model.cut !text ~gp:s ~len:(e - s)
        end)
    edits;
  Update_log.prepare_for_query log;
  log_agrees_with_text log !text;
  true

let prop_oracle mode name =
  QCheck2.Test.make ~name ~count:120
    QCheck2.Gen.(list_size (int_range 1 14) edit_gen)
    (fun edits -> run_schedule mode edits)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_oracle Update_log.Lazy_dynamic "oracle: LD random edits = text editing";
      prop_oracle Update_log.Lazy_static "oracle: LS random edits = text editing";
    ]

let suite =
  [
    Alcotest.test_case "empty log" `Quick test_empty;
    Alcotest.test_case "single segment" `Quick test_single_segment;
    Alcotest.test_case "nested insertion" `Quick test_nested_insertion;
    Alcotest.test_case "sibling insertion shifts" `Quick test_sibling_insertion_shifts;
    Alcotest.test_case "lp after left sibling" `Quick test_local_position_after_left_sibling;
    Alcotest.test_case "multiple roots" `Quick test_insert_into_empty_doc_multiple_roots;
    Alcotest.test_case "insert errors" `Quick test_insert_errors;
    Alcotest.test_case "tag-list paths" `Quick test_tag_list_paths;
    Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
    Alcotest.test_case "remove own text" `Quick test_remove_own_text;
    Alcotest.test_case "remove whole segment" `Quick test_remove_whole_segment;
    Alcotest.test_case "remove with descendants" `Quick test_remove_with_descendants;
    Alcotest.test_case "remove left intersection" `Quick test_remove_left_intersection;
    Alcotest.test_case "remove right intersection" `Quick test_remove_right_intersection;
    Alcotest.test_case "remove figure-6 combination" `Quick test_remove_figure6_combination;
    Alcotest.test_case "remove errors" `Quick test_remove_errors;
    Alcotest.test_case "reinsert into gap" `Quick test_remove_reinsert_into_gap;
    Alcotest.test_case "lazy static mode" `Quick test_lazy_static_mode;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "sizes grow" `Quick test_sizes_grow;
  ]
  @ props

let test_metrics_counting () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  ignore (Update_log.insert log ~gp:3 "<b/>");
  Update_log.remove log ~gp:3 ~len:4;
  let m = Update_log.metrics log in
  check_int "segments removed" 1 m.Update_log.segments_removed;
  check_int "elements removed" 1 m.Update_log.elements_removed;
  check_bool "nodes visited" true (m.Update_log.nodes_visited > 0)

let test_doc_length_tracks_edits () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  check_int "after insert" 7 (Update_log.doc_length log);
  ignore (Update_log.insert log ~gp:3 "<b>xy</b>");
  check_int "after second" 16 (Update_log.doc_length log);
  Update_log.remove log ~gp:3 ~len:9;
  check_int "after remove" 7 (Update_log.doc_length log)

let test_remove_whole_document () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/></a>");
  Update_log.remove log ~gp:0 ~len:11;
  check_int "empty" 0 (Update_log.doc_length log);
  check_int "no segments" 0 (Update_log.segment_count log);
  check_string "materializes empty" "" (Update_log.materialize log);
  (* And the log remains usable. *)
  ignore (Update_log.insert log ~gp:0 "<c/>");
  log_agrees_with_text log "<c/>"

let test_multiple_tombstones_one_segment () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/><c/><d/><e/></a>");
  (* Remove <c/> = [7, 11), then <b/> = [3, 7) creating two gaps
     merged into one tombstone, then <e/>. *)
  Update_log.remove log ~gp:7 ~len:4;
  log_agrees_with_text log "<a><b/><d/><e/></a>";
  Update_log.remove log ~gp:3 ~len:4;
  log_agrees_with_text log "<a><d/><e/></a>";
  Update_log.remove log ~gp:7 ~len:4;
  log_agrees_with_text log "<a><d/></a>";
  (* Reinsert into the merged gap region. *)
  ignore (Update_log.insert log ~gp:3 "<x/>");
  log_agrees_with_text log "<a><x/><d/></a>"

let suite =
  suite
  @ [
      Alcotest.test_case "metrics counting" `Quick test_metrics_counting;
      Alcotest.test_case "doc length tracks edits" `Quick test_doc_length_tracks_edits;
      Alcotest.test_case "remove whole document" `Quick test_remove_whole_document;
      Alcotest.test_case "multiple tombstones" `Quick test_multiple_tombstones_one_segment;
    ]

(* Arbitrary (often invalid) removal ranges: either the removal is
   rejected and the log is byte-identical to before, or it succeeds and
   materialization equals plain string deletion; when the result text
   happens to be well-formed, derived labels must also match a fresh
   parse. *)
let prop_arbitrary_removal_ranges =
  let gen =
    QCheck2.Gen.(pair (list_size (int_range 1 6) (pair (int_bound 500) (int_bound 5)))
                   (list_size (int_range 1 8) (pair (int_bound 1000) (int_bound 1000))))
  in
  QCheck2.Test.make ~name:"removal is atomic on arbitrary ranges" ~count:100 gen
    (fun (inserts, removals) ->
      let log = Update_log.create () in
      let text = ref "" in
      List.iter
        (fun (pick, fi) ->
          let frag = fragments.(fi) in
          let points = Text_model.valid_insert_points !text frag in
          if points <> [] then begin
            let gp = List.nth points (pick mod List.length points) in
            ignore (Update_log.insert log ~gp frag);
            text := Text_model.splice !text ~gp frag
          end)
        inserts;
      List.for_all
        (fun (p1, p2) ->
          let n = String.length !text in
          if n = 0 then true
          else begin
            let gp = p1 mod n in
            let len = 1 + (p2 mod (n - gp)) in
            match Update_log.remove log ~gp ~len with
            | () ->
              text := Text_model.cut !text ~gp ~len;
              Update_log.materialize log = !text
            | exception Invalid_argument _ -> Update_log.materialize log = !text
          end)
        removals)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_arbitrary_removal_ranges ]

let test_lazy_static_removal () =
  (* LS removals must also keep derived structures consistent once the
     log is prepared. *)
  let log = Update_log.create ~mode:Update_log.Lazy_static () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  ignore (Update_log.insert log ~gp:3 "<b/>");
  ignore (Update_log.insert log ~gp:3 "<b/>");
  Update_log.remove log ~gp:3 ~len:4;
  Update_log.prepare_for_query log;
  log_agrees_with_text log "<a><b/></a>";
  check_int "one b entry" 1 (Array.length (Update_log.segments_for_tag log ~tag:"b"))

let test_small_branching_log () =
  (* Churn through the SB-tree during ordinary use: 40 inserts under
     one parent, then 30 removes.  (The in-memory SB-tree is a balanced
     map with no branching factor to shrink any more.) *)
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<r></r>");
  for _ = 1 to 40 do
    ignore (Update_log.insert log ~gp:3 "<x><y/></x>")
  done;
  for _ = 1 to 30 do
    Update_log.remove log ~gp:3 ~len:11
  done;
  Update_log.check log;
  check_int "ten left" 10 (Array.length (Update_log.segments_for_tag log ~tag:"x"))

(* [check] must catch columns that drifted from their skeleton: here
   one segment's columns are swapped for another's behind the setter's
   back. *)
let test_check_catches_stale_columns () =
  let log = Update_log.create () in
  let s1 = Update_log.insert log ~gp:0 "<a><b/></a>" in
  let s2 = Update_log.insert log ~gp:11 "<c/>" in
  Update_log.check log;
  let n1 = Update_log.node_of_sid log s1 and n2 = Update_log.node_of_sid log s2 in
  n1.Er_node.columns <- n2.Er_node.columns;
  match Update_log.check log with
  | () -> Alcotest.fail "stale columns accepted"
  | exception Failure msg ->
    check_bool "names the columns" true
      (String.starts_with ~prefix:(Printf.sprintf "segment %d: element columns" s1) msg)

(* [Seg_map.check] must refuse a gp off the segment's place in the
   tree: one [set] to a wrong gp, and a shift that skips one slot.  The
   parent's own text is tombstoned before both children, so the check
   subtracts dead bytes. *)
let test_seg_map_check () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a>xyz<t/>w</a>");
  Update_log.remove log ~gp:3 ~len:2;
  let sb = Update_log.insert log ~gp:4 "<b/>" in
  let sc = Update_log.insert log ~gp:8 "<c/>" in
  log_agrees_with_text log "<a>z<b/><c/><t/>w</a>";
  let map = Update_log.seg_map log in
  let nb = Update_log.node_of_sid log sb and nc = Update_log.node_of_sid log sc in
  check_int "b gp" 4 (gp log nb);
  check_int "c gp" 8 (gp log nc);
  let refused what sid =
    match Seg_map.check map (Update_log.root log) with
    | () -> Alcotest.failf "%s accepted" what
    | exception Failure msg ->
      check_bool (what ^ " names the segment") true
        (String.starts_with ~prefix:(Printf.sprintf "segment %d: gp" sid) msg)
  in
  Seg_map.set map nc 7;
  refused "set to a wrong gp" sc;
  Seg_map.set map nc 8;
  Update_log.check log;
  (* Every gp from b's on moves by 4, then b moves back: c alone was
     shifted. *)
  check_int "shifted" 2 (Seg_map.shift map ~from:4 4);
  Seg_map.set map nb 4;
  refused "a shift that skips a slot" sc

let suite =
  suite
  @ [
      Alcotest.test_case "lazy static removal" `Quick test_lazy_static_removal;
      Alcotest.test_case "small branching log" `Quick test_small_branching_log;
      Alcotest.test_case "check catches stale columns" `Quick test_check_catches_stale_columns;
      Alcotest.test_case "seg_map check refuses a gp off its place" `Quick test_seg_map_check;
    ]

(* Oracle with attribute indexing on: attribute records must track the
   fresh parse exactly like element records do. *)
let prop_oracle_with_attributes =
  let frags =
    [| "<a k=\"1\"/>"; "<b k=\"2\" m=\"x\">t</b>"; "<c><a k=\"3\"/></c>"; "<d>t</d>" |]
  in
  QCheck2.Test.make ~name:"oracle: attribute records track fresh parse" ~count:80
    QCheck2.Gen.(list_size (int_range 1 10) (pair (int_bound 1000) (int_bound 3)))
    (fun picks ->
      let log = Update_log.create ~index_attributes:true () in
      let text = ref "" in
      List.iter
        (fun (pick, fi) ->
          let frag = frags.(fi) in
          let points = Text_model.valid_insert_points !text frag in
          if points <> [] then begin
            let gp = List.nth points (pick mod List.length points) in
            ignore (Update_log.insert log ~gp frag);
            text := Text_model.splice !text ~gp frag
          end)
        picks;
      Update_log.check log;
      (* Fresh attribute labels per @name. *)
      let labels = Text_model.labels ~attributes:true !text in
      List.for_all
        (fun (name, _) ->
          name.[0] <> '@'
          || Update_log.global_elements log ~tag:name
             = List.sort compare (Text_model.of_tag labels name))
        labels)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_oracle_with_attributes ]

(* Keyed tag-list removal at its equal-gp edge.  P's own text before
   its child C is tombstoned, so P and C share a gp and stand next to
   each other in tag c's list, P first.  From that base, each remove
   must find its entry across the pair: C whole, P with C inside it, a
   cut lowering C's count (behind P in the run) and one lowering P's.
   A snapshot pinned before each remove keeps the base. *)
let equal_gp_base mode =
  let log = Update_log.create ~mode () in
  let text = ref "" in
  List.iter
    (fun (gp, frag) ->
      ignore (Update_log.insert log ~gp frag);
      text := Text_model.splice !text ~gp frag)
    [ (0, "<r><x/></r>"); (3, "<b/><c></c><c/>"); (7, "<c><b/></c><c/>"); (25, "<c/>") ];
  Update_log.remove log ~gp:3 ~len:4;
  text := Text_model.cut !text ~gp:3 ~len:4;
  (log, !text)

let test_equal_gp_removal () =
  let agrees log text =
    log_agrees_with_text log text;
    let labels = Text_model.labels text in
    List.iter
      (fun (anc, desc) ->
        let (ga, gd), _ = Lxu_join.Lazy_join.query log ~anc ~desc () in
        let expected =
          Lxu_props.Naive_join.join ~anc:(Text_model.of_tag labels anc)
            ~desc:(Text_model.of_tag labels desc) ()
        in
        if List.combine (Array.to_list ga) (Array.to_list gd) <> expected then
          Alcotest.failf "%s//%s disagrees with the naive join on %s" anc desc text)
      [ ("c", "b"); ("c", "c"); ("r", "c") ]
  in
  List.iter
    (fun mode ->
      List.iter
        (fun (what, at, len) ->
          let log, base = equal_gp_base mode in
          let pinned = Update_log.freeze log in
          let shared =
            Array.map
              (fun (e : Tag_list.entry) -> gp log (Update_log.node_of_sid log e.sid))
              (Update_log.segments_for_tag log ~tag:"c")
          in
          check_bool "P and C share a gp" true (shared.(0) = shared.(1));
          Update_log.remove log ~gp:at ~len;
          (try agrees log (Text_model.cut base ~gp:at ~len)
           with e -> Alcotest.failf "%s: %s" what (Printexc.to_string e));
          agrees pinned base)
        [
          ("remove the child", 3, 15);
          ("remove the parent holding it", 3, 30);
          ("cut one of the child's c", 14, 4);
          ("cut one of the parent's c", 29, 4);
        ])
    [ Update_log.Lazy_dynamic; Update_log.Lazy_static ]

(* [Update_log.check] refuses a tag list whose main run is out of gp
   order, which keyed removal searches by, or which puts a segment
   before its ancestor at the same gp, which the join's segment merge
   relies on.  Both runs are built by merging LS pending entries with
   a lying [gp_of]. *)
let test_check_refuses_tag_list_order () =
  let refused what log =
    match Update_log.check log with
    | () -> Alcotest.failf "%s accepted" what
    | exception Failure msg ->
      check_bool (what ^ " names the tag list") true
        (String.starts_with ~prefix:"tag " msg)
  in
  let log = Update_log.create ~mode:Update_log.Lazy_static () in
  List.iter (fun gp -> ignore (Update_log.insert log ~gp "<a/>")) [ 0; 4; 8 ];
  Tag_list.sort_all (Update_log.tag_list log) ~gp_of:(fun sid -> -sid);
  refused "a run in reverse gp order" log;
  (* P and C at gp 0, C merged first. *)
  let log = Update_log.create ~mode:Update_log.Lazy_static () in
  let p = Update_log.insert log ~gp:0 "<b/><c></c>" in
  ignore (Update_log.insert log ~gp:4 "<c/>");
  Update_log.remove log ~gp:0 ~len:4;
  Tag_list.sort_all (Update_log.tag_list log) ~gp_of:(fun sid -> if sid = p then 1 else 0);
  refused "a child before its parent at the same gp" log

(* An LS insert leaves the SB-tree stale, and a later remove resolves
   the main runs' sids through it, so [Update_log.check] must merge no
   pending run into a main run.  [log_agrees_with_text] runs the check
   after every step, so each write below follows one. *)
let test_ls_check_then_remove () =
  let log = Update_log.create ~mode:Update_log.Lazy_static () in
  let text = ref "" in
  let insert gp frag =
    ignore (Update_log.insert log ~gp frag);
    text := Text_model.splice !text ~gp frag;
    log_agrees_with_text log !text
  in
  let remove gp len =
    Update_log.remove log ~gp ~len;
    text := Text_model.cut !text ~gp ~len;
    log_agrees_with_text log !text
  in
  insert 0 "<a/>";
  remove 0 4;
  insert 0 "<r><a/></r>";
  Update_log.prepare_for_query log;
  insert 3 "<a/>";
  insert 11 "<a><b/></a>";
  remove 3 4;
  remove 10 4;
  insert 7 "<a/>";
  remove 0 (Update_log.doc_length log);
  Update_log.prepare_for_query log;
  log_agrees_with_text log !text

let suite =
  suite
  @ [
      Alcotest.test_case "keyed removal at equal gps" `Quick test_equal_gp_removal;
      Alcotest.test_case "check refuses tag lists out of order" `Quick
        test_check_refuses_tag_list_order;
      Alcotest.test_case "LS check then remove" `Quick test_ls_check_then_remove;
    ]
