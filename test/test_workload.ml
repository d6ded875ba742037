(* Tests for the workload generators: determinism, shape guarantees,
   and — crucially — that the join-mix generator delivers exactly the
   promised in-/cross-segment pair counts when run through the real
   database. *)

open Lxu_workload
open Lazy_xml

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  check_bool "different streams" true (Rng.next a <> Rng.next b)

(* --- generator ------------------------------------------------------- *)

let test_generator_deterministic () =
  let t1 = Generator.generate_text ~seed:5 ~target_elements:200 () in
  let t2 = Generator.generate_text ~seed:5 ~target_elements:200 () in
  check_string "same doc" t1 t2;
  let t3 = Generator.generate_text ~seed:6 ~target_elements:200 () in
  check_bool "different seed differs" true (t1 <> t3)

let test_generator_element_count () =
  let nodes = Generator.generate ~seed:1 ~target_elements:500 () in
  check_bool "at least target" true (Lxu_xml.Tree.element_count nodes >= 500)

let test_generator_well_formed () =
  let text = Generator.generate_text ~seed:9 ~target_elements:300 () in
  check_bool "well-formed" true (Lxu_xml.Parser.is_well_formed_fragment text)

let test_deep_chain () =
  let text = Generator.deep_chain ~tags:[| "a"; "b" |] ~depth:50 ~payload:"x" in
  check_bool "well-formed" true (Lxu_xml.Parser.is_well_formed_fragment text);
  let nodes = Lxu_xml.Parser.parse_fragment text in
  check_int "depth" 50 (Lxu_xml.Tree.max_depth nodes);
  check_int "elements" 50 (Lxu_xml.Tree.element_count nodes)

(* --- joinmix --------------------------------------------------------- *)

let run_joinmix spec =
  let schedule = Joinmix.generate spec in
  let db = Lazy_db.create () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) schedule.Joinmix.edits;
  Lazy_db.check db;
  let _, stats =
    Lazy_db.query db ~anc:schedule.Joinmix.anc_tag ~desc:schedule.Joinmix.desc_tag ()
  in
  (schedule, db, stats)

let test_joinmix_counts () =
  List.iter
    (fun (shape, cross_percent) ->
      let spec = { Joinmix.segments = 20; pairs_per_segment = 3; cross_percent; shape } in
      let schedule, db, stats = run_joinmix spec in
      let name = Printf.sprintf "cross=%d" cross_percent in
      check_int (name ^ " segments") 20 (Lazy_db.segment_count db);
      check_int (name ^ " in pairs") schedule.Joinmix.expected_in_pairs stats.Lazy_db.in_pairs;
      check_int (name ^ " cross pairs") schedule.Joinmix.expected_cross_pairs
        stats.Lazy_db.cross_pairs;
      check_int (name ^ " total") (20 * 3) stats.Lazy_db.pair_count)
    [
      (Joinmix.Balanced, 0);
      (Joinmix.Balanced, 20);
      (Joinmix.Balanced, 60);
      (Joinmix.Balanced, 90);
      (Joinmix.Nested, 0);
      (Joinmix.Nested, 20);
      (Joinmix.Nested, 60);
      (Joinmix.Nested, 90);
    ]

let test_joinmix_matches_std () =
  List.iter
    (fun shape ->
      let spec = { Joinmix.segments = 12; pairs_per_segment = 2; cross_percent = 50; shape } in
      let schedule = Joinmix.generate spec in
      let lazy_db = Lazy_db.create ~engine:Lazy_db.LD () in
      let store = Lxu_baselines.Interval_store.create () in
      List.iter
        (fun (gp, frag) ->
          Lazy_db.insert lazy_db ~gp frag;
          Lxu_baselines.Interval_store.insert store ~gp frag)
        schedule.Joinmix.edits;
      let p1 = fst (Lazy_db.query lazy_db ~anc:"A" ~desc:"D" ()) in
      let p2 = Std_ref.query store ~anc:"A" ~desc:"D" in
      check_bool "identical results" true (p1 = p2))
    [ Joinmix.Balanced; Joinmix.Nested ]

let test_joinmix_nested_shape () =
  let spec =
    { Joinmix.segments = 10; pairs_per_segment = 1; cross_percent = 0; shape = Joinmix.Nested }
  in
  let _, db, _ = run_joinmix spec in
  (* A nested schedule chains segments: the ER-tree depth equals the
     segment count. *)
  let log = Option.get (Lazy_db.log db) in
  let depth = ref 0 in
  let rec go n d =
    if d > !depth then depth := d;
    Lxu_util.Vec.iter (fun c -> go c (d + 1)) n.Lxu_seglog.Er_node.children
  in
  go (Lxu_seglog.Update_log.root log) 0;
  check_int "chain depth" 10 !depth

let test_joinmix_invalid () =
  Alcotest.check_raises "too few" (Invalid_argument "Joinmix.generate: need at least 2 segments")
    (fun () ->
      ignore
        (Joinmix.generate
           { Joinmix.segments = 1; pairs_per_segment = 1; cross_percent = 0; shape = Joinmix.Balanced }))

(* --- chopper ---------------------------------------------------------- *)

let reconstructs text edits =
  List.fold_left (fun acc (gp, frag) -> Lxu_props.Text_model.splice acc ~gp frag) "" edits = text

let test_chopper_balanced_reconstructs () =
  let text = Generator.generate_text ~seed:3 ~target_elements:400 () in
  let edits = Chopper.chop ~text ~segments:20 Chopper.Balanced in
  check_bool "reconstructs" true (reconstructs text edits);
  check_bool "multiple segments" true (Chopper.segment_count edits > 5);
  check_bool "at most requested" true (Chopper.segment_count edits <= 20)

let test_chopper_nested_reconstructs () =
  let text = Generator.deep_chain ~tags:[| "a"; "b"; "c" |] ~depth:60 ~payload:"xy" in
  let edits = Chopper.chop ~text ~segments:15 Chopper.Nested in
  check_bool "reconstructs" true (reconstructs text edits);
  check_bool "got full count" true (Chopper.segment_count edits >= 14)

let test_chopper_via_db () =
  let text = Generator.generate_text ~seed:11 ~target_elements:300 () in
  List.iter
    (fun shape ->
      let edits = Chopper.chop ~text ~segments:12 shape in
      let db = Lazy_db.create () in
      List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits;
      Lazy_db.check db;
      check_string "db text equals original" text (Lazy_db.text db))
    [ Chopper.Balanced; Chopper.Nested ]

let test_chopper_nested_shape_is_chain () =
  let text = Generator.deep_chain ~tags:[| "a"; "b" |] ~depth:40 ~payload:"" in
  let edits = Chopper.chop ~text ~segments:8 Chopper.Nested in
  let db = Lazy_db.create () in
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits;
  let log = Option.get (Lazy_db.log db) in
  (* Every non-root node has at most one child: a pure chain. *)
  let ok = ref true in
  Lxu_seglog.Er_node.iter_subtree (Lxu_seglog.Update_log.root log) (fun n ->
      if Lxu_util.Vec.length n.Lxu_seglog.Er_node.children > 1 then ok := false);
  check_bool "chain" true !ok

let test_chopper_single_segment () =
  let edits = Chopper.chop ~text:"<a><b/></a>" ~segments:1 Chopper.Balanced in
  check_int "one edit" 1 (Chopper.segment_count edits);
  check_bool "reconstructs" true (reconstructs "<a><b/></a>" edits)

(* --- xmark ------------------------------------------------------------ *)

let test_xmark_deterministic () =
  let a = Xmark.generate_text ~seed:1 () in
  let b = Xmark.generate_text ~seed:1 () in
  check_string "same" a b

let test_xmark_well_formed_and_rich () =
  let text = Xmark.generate_text ~persons:50 ~seed:2 () in
  check_bool "well-formed" true (Lxu_xml.Parser.is_well_formed_fragment text);
  let nodes = Lxu_xml.Parser.parse_fragment text in
  let count tag = List.length (Lxu_xml.Tree.find_all nodes ~tag) in
  check_int "persons" 50 (count "person");
  check_bool "phones present" true (count "phone" > 20);
  check_bool "interests present" true (count "interest" > 10);
  check_bool "watches present" true (count "watch" > 10)

let test_xmark_queries_nonempty () =
  let text = Xmark.generate_text ~persons:60 ~seed:3 () in
  let db = Lazy_db.create () in
  List.iter
    (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
    (Chopper.chop ~text ~segments:10 Chopper.Balanced);
  List.iter
    (fun (name, anc, desc) ->
      check_bool (name ^ " nonempty") true (Lazy_db.count db ~anc ~desc () > 0))
    Xmark.queries

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator element count" `Quick test_generator_element_count;
    Alcotest.test_case "generator well-formed" `Quick test_generator_well_formed;
    Alcotest.test_case "deep chain" `Quick test_deep_chain;
    Alcotest.test_case "joinmix exact pair counts" `Quick test_joinmix_counts;
    Alcotest.test_case "joinmix lazy = std" `Quick test_joinmix_matches_std;
    Alcotest.test_case "joinmix nested shape" `Quick test_joinmix_nested_shape;
    Alcotest.test_case "joinmix invalid spec" `Quick test_joinmix_invalid;
    Alcotest.test_case "chopper balanced reconstructs" `Quick test_chopper_balanced_reconstructs;
    Alcotest.test_case "chopper nested reconstructs" `Quick test_chopper_nested_reconstructs;
    Alcotest.test_case "chopper via db" `Quick test_chopper_via_db;
    Alcotest.test_case "chopper nested is chain" `Quick test_chopper_nested_shape_is_chain;
    Alcotest.test_case "chopper single segment" `Quick test_chopper_single_segment;
    Alcotest.test_case "xmark deterministic" `Quick test_xmark_deterministic;
    Alcotest.test_case "xmark well-formed and rich" `Quick test_xmark_well_formed_and_rich;
    Alcotest.test_case "xmark queries nonempty" `Quick test_xmark_queries_nonempty;
  ]

(* Property: joinmix delivers its promised pair counts for any spec. *)
let prop_joinmix_exact =
  let gen =
    QCheck2.Gen.(
      map3
        (fun segments pairs (cross, nested) ->
          {
            Joinmix.segments = 2 + (segments mod 30);
            pairs_per_segment = 1 + (pairs mod 5);
            cross_percent = cross mod 101;
            shape = (if nested then Joinmix.Nested else Joinmix.Balanced);
          })
        (int_bound 1000) (int_bound 1000)
        (pair (int_bound 1000) bool))
  in
  QCheck2.Test.make ~name:"joinmix counts exact for any spec" ~count:60 gen
    (fun spec ->
      let schedule = Joinmix.generate spec in
      let db = Lazy_db.create () in
      List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) schedule.Joinmix.edits;
      let _, stats = Lazy_db.query db ~anc:"A" ~desc:"D" () in
      stats.Lazy_db.in_pairs = schedule.Joinmix.expected_in_pairs
      && stats.Lazy_db.cross_pairs = schedule.Joinmix.expected_cross_pairs
      && Lazy_db.segment_count db = spec.Joinmix.segments)

(* Property: chopping any generated document reconstructs it. *)
let prop_chopper_reconstructs =
  let gen = QCheck2.Gen.(pair (int_range 1 10_000) (int_range 1 30)) in
  QCheck2.Test.make ~name:"chopper reconstructs generated docs" ~count:40 gen
    (fun (seed, segments) ->
      let text = Generator.generate_text ~seed ~target_elements:150 () in
      List.for_all
        (fun shape -> reconstructs text (Chopper.chop ~text ~segments shape))
        [ Chopper.Balanced; Chopper.Nested ])

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_joinmix_exact;
      QCheck_alcotest.to_alcotest prop_chopper_reconstructs;
    ]
