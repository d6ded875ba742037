(* Tests for the structural join algorithms.  The oracle chain:
   Naive O(n^2) = Stack-Tree-Desc on fresh global labels = Lazy-Join
   (LD and LS) on the update log, for both the // and / axes. *)

open Lxu_seglog
open Lxu_join
open Lxu_baselines
open Lxu_util
module Text_model = Lxu_props.Text_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pair_list = Alcotest.(list (pair int int))

let intervals_of labels =
  Array.of_list
    (List.map (fun (s, e, l) -> Interval.make ~start:s ~stop:e ~level:l) labels)

let std_pairs ?axis text ~anc ~desc =
  let labels = Text_model.labels text in
  let a = Text_model.of_tag labels anc and d = Text_model.of_tag labels desc in
  let pairs, _ = Stack_tree_desc.join ?axis ~anc:(intervals_of a) ~desc:(intervals_of d) () in
  List.map
    (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start))
    pairs
  |> List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2))

let naive_pairs ?axis text ~anc ~desc =
  let labels = Text_model.labels text in
  Lxu_props.Naive_join.join ?axis ~anc:(Text_model.of_tag labels anc)
    ~desc:(Text_model.of_tag labels desc) ()

(* --- Stack-Tree-Desc ------------------------------------------------ *)

let test_std_simple () =
  let text = "<a><b/><a><b/></a></a><b/>" in
  (* a elements: [0,22) lvl0, [7,18) lvl1; b: [3,7) lvl1, [10,14) lvl2, [22,26) lvl0 *)
  let got = std_pairs text ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "pairs" [ (0, 3); (0, 10); (7, 10) ] got

let test_std_child_axis () =
  let text = "<a><b/><a><b/></a></a><b/>" in
  let got = std_pairs ~axis:Axis.Child text ~anc:"a" ~desc:"b" in
  Alcotest.check pair_list "pairs" [ (0, 3); (7, 10) ] got;
  (* a/a: nested direct *)
  let got = std_pairs ~axis:Axis.Child text ~anc:"a" ~desc:"a" in
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
      [ Axis.Desc; Axis.Child ]
  done

(* --- Lazy-Join ------------------------------------------------------- *)

(* The production read: [Lazy_join.query]'s columns as a list. *)
let lazy_pairs ?axis log ~anc ~desc =
  let (ga, gd), stats = Lazy_join.query ?axis log ~anc ~desc () in
  (List.combine (Array.to_list ga) (Array.to_list gd), stats)

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
    (fun (axis, name) ->
      let expected = naive_pairs ~axis text ~anc:"A" ~desc:"B" in
      let got, _ = lazy_pairs ~axis log ~anc:"A" ~desc:"B" in
      Alcotest.check pair_list name expected got)
    [ (Axis.Desc, "descendant"); (Axis.Child, "child") ]

let test_lazy_missing_tags () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<a/>");
  let got, _ = lazy_pairs log ~anc:"a" ~desc:"nope" in
  Alcotest.check pair_list "empty" [] got;
  let got, _ = lazy_pairs log ~anc:"nope" ~desc:"a" in
  Alcotest.check pair_list "empty" [] got;
  let db = Lazy_xml.Lazy_db.create () in
  Lazy_xml.Lazy_db.insert db ~gp:0 "<a><b/></a>";
  check_int "count, absent desc" 0 (Lazy_xml.Lazy_db.count db ~anc:"a" ~desc:"zz" ());
  check_int "count, absent anc" 0 (Lazy_xml.Lazy_db.count db ~anc:"zz" ~desc:"b" ())

let test_lazy_after_removal () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<A><B/><B/></A>");
  (* Remove the first <B/>. *)
  Update_log.remove log ~gp:3 ~len:4;
  let text = Update_log.materialize log in
  let expected = naive_pairs text ~anc:"A" ~desc:"B" in
  let got, _ = lazy_pairs log ~anc:"A" ~desc:"B" in
  Alcotest.check pair_list "post-removal pairs" expected got

(* The join emits pairs grouped by descendant segment, cross-segment
   frames innermost first and in-segment ancestors innermost first, so
   its raw output is far from (desc, anc) order: [query] must merge
   several runs.  Same-tag ancestors nest across three segments, each
   segment holds an in-segment A chain, and a tombstone shifts the
   outer segment's later labels.  The stats pin that shape: every
   segment joins in-segment, and the inner two meet pushed frames. *)
let unsorted_runs_log () =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<A><A><B/></A><z>zz</z><x></x><B/></A>");
  (* S2 inside S1's <x> (offset 26 of S1's text). *)
  ignore (Update_log.insert log ~gp:26 "<A><A><B/></A><y></y><B/></A>");
  (* S3 inside S2's <y> (offset 17 of S2's text). *)
  ignore (Update_log.insert log ~gp:43 "<A><A><B/></A><B/></A>");
  (* Tombstone S1's <z>zz</z>, before both child segments. *)
  Update_log.remove log ~gp:14 ~len:9;
  log

let test_lazy_unsorted_runs () =
  let log = unsorted_runs_log () in
  let got, stats = lazy_pairs log ~anc:"A" ~desc:"B" in
  let text = Update_log.materialize log in
  Alcotest.check pair_list "= naive on the materialization" (naive_pairs text ~anc:"A" ~desc:"B") got;
  check_int "SL_D entries" 3 stats.Lazy_join.d_segments;
  check_int "in-segment joins" 3 stats.Lazy_join.in_segment_joins;
  check_int "pushed frames" 2 stats.Lazy_join.segments_pushed;
  check_int "in-segment pairs" 9 stats.Lazy_join.in_pairs;
  check_int "cross-segment pairs" 6 stats.Lazy_join.cross_pairs

(* The shape of a selective query over many small segments: one
   ancestor in a parent segment and [n] child segments, each holding
   one descendant, so every SL_D entry is a one-pair cross-segment
   task under the same frame. *)
let one_pair_per_segment_log n =
  let log = Update_log.create () in
  ignore (Update_log.insert log ~gp:0 "<r><a>tt</a><africa><x/></africa></r>");
  (* Insert at the <x/>'s start, back to front: children in order. *)
  for k = n - 1 downto 0 do
    ignore (Update_log.insert log ~gp:20 (Printf.sprintf "<item id=\"%d\"><location/></item>" k))
  done;
  Update_log.remove log ~gp:6 ~len:2;
  log

let test_lazy_one_pair_per_segment () =
  let n = 397 in
  let log = one_pair_per_segment_log n in
  let text = Update_log.materialize log in
  List.iter
    (fun axis ->
      let expected = naive_pairs ~axis text ~anc:"africa" ~desc:"location" in
      let got, stats = lazy_pairs ~axis log ~anc:"africa" ~desc:"location" in
      Alcotest.check pair_list "= naive" expected got;
      check_int "pairs" (if axis = Axis.Desc then n else 0) (List.length got);
      check_int "one SL_D entry per segment" n stats.Lazy_join.d_segments;
      check_int "all cross-segment" (List.length got) stats.Lazy_join.cross_pairs;
      check_int "none in-segment" 0 stats.Lazy_join.in_pairs)
    [ Axis.Desc; Axis.Child ];
  let got, _ = lazy_pairs ~axis:Axis.Child log ~anc:"item" ~desc:"location" in
  Alcotest.check pair_list "item/location = naive"
    (naive_pairs ~axis:Axis.Child text ~anc:"item" ~desc:"location") got;
  check_int "item/location pairs" n (List.length got)

(* A guard that fires while [query] runs stops it.  The guard probes
   the clock only on every 64th check, and its first probe (made here)
   finds the deadline ahead: once it has passed, the join starts and
   raises at a later probe, one of the several hundred checks its 397
   tasks make. *)
let test_query_cancelled_mid_join () =
  let log = one_pair_per_segment_log 397 in
  let deadline = Deadline.after 0.002 in
  let guard = Deadline.guard ~deadline () in
  Deadline.check_opt guard;
  while not (Deadline.expired deadline) do
    ()
  done;
  let before = Lazy_join.runs () in
  (match Lazy_join.query ?guard log ~anc:"africa" ~desc:"location" () with
  | _ -> Alcotest.fail "query ran to completion past its deadline"
  | exception Deadline.Cancel.Cancelled Deadline.Cancel.Timeout -> ());
  check_int "the join had started" (before + 1) (Lazy_join.runs ())

(* perfbench's traced read times [run] and [global_pairs] as two
   spans: that route must give [query]'s answer and stats. *)
let test_global_pairs_of_run () =
  List.iter
    (fun (log, anc, desc) ->
      List.iter
        (fun axis ->
          let pairs, run_stats = Lazy_join.run ~axis log ~anc ~desc () in
          let got, stats = lazy_pairs ~axis log ~anc ~desc in
          Alcotest.check pair_list (anc ^ "/" ^ desc) got (Lazy_join.global_pairs log pairs);
          check_bool "same stats" true (stats = run_stats))
        [ Axis.Desc; Axis.Child ])
    [
      (unsorted_runs_log (), "A", "B");
      (unsorted_runs_log (), "A", "A");
      (one_pair_per_segment_log 50, "africa", "location");
      (one_pair_per_segment_log 50, "r", "item");
    ]

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

type edit = Ins of int * int | Del of int

let edit_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun a b -> Ins (a, b)) (int_bound 10_000) (int_bound (Array.length fragments - 1)));
        (1, map (fun a -> Del a) (int_bound 10_000));
      ])

(* Strictly increasing in (desc, anc): the canonical order of
   [Lazy_join.query], with no duplicate pair. *)
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
    Update_log.create ~mode ~pstore:store ()
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
        let points = Text_model.valid_insert_points !text frag in
        if points <> [] then begin
          let gp = List.nth points (pick mod List.length points) in
          List.iter (fun l -> ignore (Update_log.insert l ~gp frag)) [ log; paged ];
          text := Text_model.splice !text ~gp frag
        end
      | Del pick ->
        let extents = Text_model.element_extents !text in
        if extents <> [] then begin
          let s, e = List.nth extents (pick mod List.length extents) in
          List.iter (fun l -> Update_log.remove l ~gp:s ~len:(e - s)) [ log; paged ];
          text := Text_model.cut !text ~gp:s ~len:(e - s)
        end))
    edits;
  let frozen_log, frozen_text = Option.get !frozen in
  List.for_all
    (fun axis ->
      let expected = naive_pairs ~axis !text ~anc:"A" ~desc:"D" in
      let std = std_pairs ~axis !text ~anc:"A" ~desc:"D" in
      let lazy_ok log expected =
        let got, _ = lazy_pairs ~axis log ~anc:"A" ~desc:"D" in
        got = expected && strictly_sorted got
      in
      let base =
        let pairs, _ = Std_baseline.run ~axis log ~anc:"A" ~desc:"D" () in
        List.map
          (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start))
          pairs
        |> List.sort (fun (a1, d1) (a2, d2) -> compare (d1, a1) (d2, a2))
      in
      expected = std && expected = base && lazy_ok log expected && lazy_ok paged expected
      && lazy_ok frozen_log (naive_pairs ~axis frozen_text ~anc:"A" ~desc:"D"))
    [ Axis.Desc; Axis.Child ]

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

(* Removes a randomly chosen whole element from [db] (drawn last
   element first). *)
let remove_random_element st db =
  let open Lazy_xml in
  match List.rev (Text_model.element_extents (Lazy_db.text db)) with
  | [] -> ()
  | l ->
    let s, e = List.nth l (Random.State.int st (List.length l)) in
    Lazy_db.remove db ~gp:s ~len:(e - s)

(* [Lazy_db.count] runs the join's counting kernel instead of building
   pairs: on LD and LS, for both axes, it must equal the materialized
   query's pair count ([cross_pairs + in_pairs]) after removes, after
   packing the document into one subtree segment and after a rebuild. *)
let test_count_equals_pair_count () =
  let open Lazy_xml in
  for seed = 1 to 50 do
    let edits, anc, desc = build_edits seed in
    let st = Random.State.make [| 0xbeef; seed |] in
    List.iter
      (fun engine ->
        let db = Lazy_db.create ~engine () in
        List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits;
        for _ = 0 to seed mod 3 do
          remove_random_element st db
        done;
        let check stage =
          List.iter
            (fun axis ->
              let _, stats = Lazy_db.query db ~axis ~anc ~desc () in
              check_int
                (Printf.sprintf "seed %d %s %s count" seed stage
                   (if axis = Axis.Child then "child" else "desc"))
                (stats.Lazy_join.cross_pairs + stats.Lazy_join.in_pairs)
                (Lazy_db.count db ~axis ~anc ~desc ()))
            [ Axis.Desc; Axis.Child ]
        in
        check "removed";
        let len = Lazy_db.doc_length db in
        if len > 0 then begin
          Lazy_db.pack_subtree db ~gp:0 ~len;
          check "packed"
        end;
        Lazy_db.rebuild db;
        check "rebuilt")
      [ Lazy_db.LD; Lazy_db.LS ]
  done

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
    Alcotest.test_case "lazy unsorted runs merge" `Quick test_lazy_unsorted_runs;
    Alcotest.test_case "lazy one pair per segment" `Quick test_lazy_one_pair_per_segment;
    Alcotest.test_case "query cancelled mid-join" `Quick test_query_cancelled_mid_join;
    Alcotest.test_case "global_pairs . run = query" `Quick test_global_pairs_of_run;
  ]
  @ props

(* Lazy-Join through [Lazy_db] after the document has been edited. *)
let edits_suite =
  [ Alcotest.test_case "count = pair_count after edits" `Quick test_count_equals_pair_count ]
