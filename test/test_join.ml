(* Tests for the structural join algorithms.  The oracle chain:
   Naive O(n^2) = Stack-Tree-Desc on fresh global labels = Lazy-Join
   (LD and LS) on the update log, for both the // and / axes. *)

open Lxu_seglog
open Lxu_join
open Lxu_labeling

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pair_list = Alcotest.(list (pair int int))

(* Global labels of [tag] from a fresh parse. *)
let fresh_labels text ~tag =
  let nodes = Lxu_xml.Parser.parse_fragment text in
  let acc = ref [] in
  Lxu_xml.Tree.iter_elements nodes (fun e ~level ->
      if e.Lxu_xml.Tree.tag = tag then
        acc := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end, level) :: !acc);
  List.sort compare !acc

let intervals_of labels =
  Array.of_list
    (List.map (fun (s, e, l) -> Interval.make ~start:s ~stop:e ~level:l) labels)

let std_pairs ?axis text ~anc ~desc =
  let a = fresh_labels text ~tag:anc and d = fresh_labels text ~tag:desc in
  let pairs, _ = Stack_tree_desc.join ?axis ~anc:(intervals_of a) ~desc:(intervals_of d) () in
  List.map
    (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start))
    pairs
  |> List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2))

let naive_pairs ?axis text ~anc ~desc =
  Naive_join.join ?axis ~anc:(fresh_labels text ~tag:anc) ~desc:(fresh_labels text ~tag:desc) ()

(* --- Stack-Tree-Desc ------------------------------------------------ *)

let test_std_simple () =
  let text = "<a><b/><a><b/></a></a><b/>" in
  (* a elements: [0,22) lvl0, [7,18) lvl1; b: [3,7) lvl1, [10,14) lvl2, [22,26) lvl0 *)
  let got = std_pairs text ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "pairs" [ (0, 3); (0, 10); (7, 10) ] got

let test_std_child_axis () =
  let text = "<a><b/><a><b/></a></a><b/>" in
  let got = std_pairs ~axis:Stack_tree_desc.Child text ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "pairs" [ (0, 3); (7, 10) ] got;
  (* a/a: nested direct *)
  let got = std_pairs ~axis:Stack_tree_desc.Child text ~anc:"a" ~desc:"a" in
  Alcotest.check pair_list "self tag" [ (0, 7) ] got

let test_std_empty_inputs () =
  let pairs, stats = Stack_tree_desc.join ~anc:[||] ~desc:[||] () in
  check_int "no pairs" 0 (List.length pairs);
  check_int "no scans" 0 (stats.Stack_tree_desc.a_scanned + stats.Stack_tree_desc.d_scanned)

let test_std_adjacent_not_contained () =
  (* <a/><b/>: a.stop = b.start — must not join. *)
  let got = std_pairs "<a/><b/>" ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "no pair" [] got

let test_std_matches_naive_random () =
  (* Deterministic pseudo-random documents. *)
  let mk_doc seed =
    let st = Random.State.make [| seed |] in
    let buf = Buffer.create 128 in
    let rec gen depth budget =
      if !budget <= 0 || depth > 5 then ()
      else begin
        let tag = [| "a"; "d"; "x" |].(Random.State.int st 3) in
        decr budget;
        Buffer.add_string buf (Printf.sprintf "<%s>" tag);
        let kids = Random.State.int st 3 in
        for _ = 1 to kids do
          gen (depth + 1) budget
        done;
        Buffer.add_string buf (Printf.sprintf "</%s>" tag)
      end
    in
    let budget = ref 30 in
    while !budget > 0 do
      gen 0 budget
    done;
    Buffer.contents buf
  in
  for seed = 1 to 25 do
    let text = mk_doc seed in
    List.iter
      (fun axis ->
        let expected = naive_pairs ~axis text ~anc:"a" ~desc:"d" in
        let got = std_pairs ~axis text ~anc:"a" ~desc:"d" in
        Alcotest.check pair_list (Printf.sprintf "seed %d" seed) expected got)
      [ Stack_tree_desc.Descendant; Stack_tree_desc.Child ]
  done

(* --- Lazy-Join ------------------------------------------------------- *)

let lazy_pairs ?(axis = Lazy_join.Descendant) log ~anc ~desc =
  let pairs, stats = Lazy_join.run ~axis log ~anc ~desc () in
  (Lazy_join.global_pairs log pairs, stats)

let test_lazy_single_segment () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a><b/><a><b/></a></a>");
  let got, stats = lazy_pairs log ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "pairs" [ (0, 3); (0, 10); (7, 10) ] got;
  check_int "one in-segment join" 1 stats.Lazy_join.in_segment_joins;
  check_int "no cross pairs" 0 stats.Lazy_join.cross_pairs

let test_lazy_cross_segment () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a></a>");
  ignore (Update_log.insert log ~gp:3 "<b/>");
  (* doc: <a><b/></a>; a and b live in different segments. *)
  let got, stats = lazy_pairs log ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "pairs" [ (0, 3) ] got;
  check_int "cross pair" 1 stats.Lazy_join.cross_pairs;
  check_int "no in-segment" 0 stats.Lazy_join.in_pairs

let test_lazy_example1 () =
  (* Example 1 / Figure 8 of the paper, rebuilt with three segments:
     segment 1 has A-elements, segment 2 sits inside one of them with
     more A-elements, segment 3 inside segment 2 holds the B element. *)
  let log = Update_log.create () in
  (* S1: A4 contains the insertion point of S2; A1, A5 do not. *)
  ignore (Update_log.insert log ~gp:0 "<A/><A><x></x></A><A/>");
  (* S2 inside A4's <x>: has A2 containing S3's point, A3 not. *)
  ignore (Update_log.insert log ~gp:10 "<A><A><y></y></A></A>");
  (* S3 inside the <y>: a B element. *)
  ignore (Update_log.insert log ~gp:19 "<B/>");
  let text = Update_log.materialize log in
  let expected = naive_pairs text ~anc:"A" ~desc:"B" in
  let got, stats = lazy_pairs log ~anc:"A" ~desc:"B" in
  Alcotest.check pair_list "all A//B pairs" expected got;
  check_int "all pairs are cross-segment" (List.length expected) stats.Lazy_join.cross_pairs;
  check_int "no in-segment pairs" 0 stats.Lazy_join.in_pairs;
  check_bool "at least three ancestors" true (List.length expected >= 3)

let test_lazy_skips_disjoint_segments () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<r></r>");
  (* Several sibling segments with A elements that contain no child
     segments, then one with the B. *)
  ignore (Update_log.insert log ~gp:3 "<A>x</A>");
  ignore (Update_log.insert log ~gp:11 "<A>y</A>");
  ignore (Update_log.insert log ~gp:19 "<A><B/></A>");
  let got, stats = lazy_pairs log ~anc:"A" ~desc:"B" in
  Alcotest.check pair_list "one pair" [ (19, 22) ] got;
  (* The two childless A segments are skipped without a push. *)
  check_int "skipped" 2 stats.Lazy_join.segments_skipped

let test_lazy_child_axis () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<A><x></x></A>");
  ignore (Update_log.insert log ~gp:6 "<B/>");
  ignore (Update_log.insert log ~gp:6 "<A><B/></A>");
  let text = Update_log.materialize log in
  List.iter
    (fun (axis, std_axis, name) ->
      let expected = naive_pairs ~axis:std_axis text ~anc:"A" ~desc:"B" in
      let got, _ = lazy_pairs ~axis log ~anc:"A" ~desc:"B" in
      Alcotest.check pair_list name expected got)
    [
      (Lazy_join.Descendant, Stack_tree_desc.Descendant, "descendant");
      (Lazy_join.Child, Stack_tree_desc.Child, "child");
    ]

let test_lazy_missing_tags () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a/>");
  let got, _ = lazy_pairs log ~anc:"a" ~desc:"nope" in
  Alcotest.check pair_list "empty" [] got;
  let got, _ = lazy_pairs log ~anc:"nope" ~desc:"a" in
  Alcotest.check pair_list "empty" [] got

let test_lazy_after_removal () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<A><B/><B/></A>");
  (* Remove the first <B/>. *)
  Update_log.remove log ~gp:3 ~len:4;
  let text = Update_log.materialize log in
  let expected = naive_pairs text ~anc:"A" ~desc:"B" in
  let got, _ = lazy_pairs log ~anc:"A" ~desc:"B" in
  Alcotest.check pair_list "post-removal pairs" expected got

(* --- randomized equivalence over segmented documents ----------------- *)

let fragments =
  [|
    "<A/>";
    "<D/>";
    "<A><D/></A>";
    "<A><A><D/></A><D/></A>";
    "<x><A/><D/></x>";
    "<D><A/></D>";
    "<A>t</A><D/>";
  |]

let string_insert s ~gp frag = String.sub s 0 gp ^ frag ^ String.sub s gp (String.length s - gp)
let string_remove s ~gp ~len = String.sub s 0 gp ^ String.sub s (gp + len) (String.length s - gp - len)

let valid_insert_points text frag =
  let ok = ref [] in
  for gp = 0 to String.length text do
    if Lxu_xml.Parser.is_well_formed_fragment (string_insert text ~gp frag) then ok := gp :: !ok
  done;
  List.rev !ok

let element_extents text =
  match Lxu_xml.Parser.parse_fragment_result text with
  | Error _ -> []
  | Ok nodes ->
    let acc = ref [] in
    Lxu_xml.Tree.iter_elements nodes (fun e ~level:_ ->
        acc := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end) :: !acc);
    List.rev !acc

type edit = Ins of int * int | Del of int

let edit_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun a b -> Ins (a, b)) (int_bound 10_000) (int_bound (Array.length fragments - 1)));
        (1, map (fun a -> Del a) (int_bound 10_000));
      ])

(* Strictly increasing in (desc, anc): the canonical order of
   [Lazy_join.global_pairs], with no duplicate pair. *)
let strictly_sorted pairs =
  let rec go = function
    | (a1, d1) :: ((a2, d2) :: _ as rest) -> (d1 < d2 || (d1 = d2 && a1 < a2)) && go rest
    | _ -> true
  in
  go pairs

(* One random edit sequence replayed on an in-memory and a paged log;
   an MVCC snapshot of the in-memory log is frozen halfway and must
   keep answering for the text it was frozen at while the live log
   moves on.  Every Lazy-Join result is checked against the naive
   oracle on the matching materialization and for canonical order. *)
let run_equivalence mode edits =
  let log = Update_log.create ~mode () in
  let paged =
    let store =
      Lxu_storage.Page_store.create ~device:(Lxu_storage.Sim_file.in_memory ()) ~page_size:512 ()
    in
    Update_log.create ~mode ~backend:(Lxu_btree.Storage_backend.Paged { store; attach = false }) ()
  in
  let text = ref "" in
  let frozen = ref None in
  let half = List.length edits / 2 in
  List.iteri
    (fun i edit ->
      if i = half then frozen := Some (Update_log.freeze log, !text);
      (match edit with
      | Ins (pick, fi) ->
        let frag = fragments.(fi) in
        let points = valid_insert_points !text frag in
        if points <> [] then begin
          let gp = List.nth points (pick mod List.length points) in
          List.iter (fun l -> ignore (Update_log.insert l ~gp frag)) [ log; paged ];
          text := string_insert !text ~gp frag
        end
      | Del pick ->
        let extents = element_extents !text in
        if extents <> [] then begin
          let s, e = List.nth extents (pick mod List.length extents) in
          List.iter (fun l -> Update_log.remove l ~gp:s ~len:(e - s)) [ log; paged ];
          text := string_remove !text ~gp:s ~len:(e - s)
        end))
    edits;
  let frozen_log, frozen_text = Option.get !frozen in
  List.for_all
    (fun (axis, std_axis) ->
      let expected = naive_pairs ~axis:std_axis !text ~anc:"A" ~desc:"D" in
      let std = std_pairs ~axis:std_axis !text ~anc:"A" ~desc:"D" in
      let lazy_ok log expected =
        let got, _ = lazy_pairs ~axis log ~anc:"A" ~desc:"D" in
        got = expected && strictly_sorted got
      in
      let base =
        let pairs, _ = Std_baseline.run ~axis:std_axis log ~anc:"A" ~desc:"D" () in
        List.map
          (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start))
          pairs
        |> List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2))
      in
      expected = std && expected = base && lazy_ok log expected && lazy_ok paged expected
      && lazy_ok frozen_log (naive_pairs ~axis:std_axis frozen_text ~anc:"A" ~desc:"D"))
    [ (Lazy_join.Descendant, Stack_tree_desc.Descendant); (Lazy_join.Child, Stack_tree_desc.Child) ]

let prop_equivalence mode name =
  QCheck2.Test.make ~name ~count:120
    QCheck2.Gen.(list_size (int_range 1 15) edit_gen)
    (fun edits -> run_equivalence mode edits)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_equivalence Update_log.Lazy_dynamic "lazy-join(LD) = STD = naive on random docs";
      prop_equivalence Update_log.Lazy_static "lazy-join(LS) = STD = naive on random docs";
    ]

(* A Joinmix schedule (even seeds) or a chopped generated document
   (odd seeds), with the tag pair to query. *)
let build_edits seed =
  let open Lxu_workload in
  if seed mod 2 = 0 then begin
    let spec =
      {
        Joinmix.segments = 6 + (seed mod 16);
        pairs_per_segment = 1 + (seed mod 4);
        cross_percent = seed * 13 mod 101;
        shape = (if seed mod 4 = 0 then Joinmix.Nested else Joinmix.Balanced);
      }
    in
    let sch = Joinmix.generate spec in
    (sch.Joinmix.edits, sch.Joinmix.anc_tag, sch.Joinmix.desc_tag)
  end
  else begin
    let params =
      { Generator.default_params with tags = [| "a"; "b"; "d" |]; text_chance_pct = 15 }
    in
    let text =
      Generator.generate_text ~params ~seed ~target_elements:(50 + (7 * (seed mod 8))) ()
    in
    let shape = if seed mod 3 = 0 then Chopper.Nested else Chopper.Balanced in
    (Chopper.chop ~text ~segments:(6 + (seed mod 10)) shape, "a", "d")
  end

(* A scratch recycles output chunks between runs, never results:
   scratch-carrying repeats must match a scratch-free run exactly,
   including after an update changes the store mid-stream. *)
let test_scratch_reuse () =
  let open Lazy_xml in
  let edits, anc, desc = build_edits 11 in
  let db = Lazy_db.create () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits;
  let log = Option.get (Lazy_db.log db) in
  let scratch = Lazy_join.scratch () in
  let check ctx =
    let p0, s0 = Lazy_join.run log ~anc ~desc () in
    for i = 1 to 3 do
      let p, s = Lazy_join.run ~scratch log ~anc ~desc () in
      if p <> p0 then Alcotest.failf "%s: scratch run %d pairs differ" ctx i;
      if s <> s0 then Alcotest.failf "%s: scratch run %d stats differ" ctx i
    done
  in
  check "initial";
  Lazy_db.insert db ~gp:0 "<a><d/></a>";
  check "after insert"

let suite =
  [
    Alcotest.test_case "std simple" `Quick test_std_simple;
    Alcotest.test_case "std child axis" `Quick test_std_child_axis;
    Alcotest.test_case "std empty inputs" `Quick test_std_empty_inputs;
    Alcotest.test_case "std adjacent not contained" `Quick test_std_adjacent_not_contained;
    Alcotest.test_case "std = naive (random)" `Quick test_std_matches_naive_random;
    Alcotest.test_case "lazy single segment" `Quick test_lazy_single_segment;
    Alcotest.test_case "lazy cross segment" `Quick test_lazy_cross_segment;
    Alcotest.test_case "lazy example 1" `Quick test_lazy_example1;
    Alcotest.test_case "lazy skips disjoint segments" `Quick test_lazy_skips_disjoint_segments;
    Alcotest.test_case "lazy child axis" `Quick test_lazy_child_axis;
    Alcotest.test_case "lazy missing tags" `Quick test_lazy_missing_tags;
    Alcotest.test_case "lazy after removal" `Quick test_lazy_after_removal;
    Alcotest.test_case "scratch reuse is invisible" `Quick test_scratch_reuse;
  ]
  @ props
