(* Tests for the XPath-subset layer: parsing, evaluation strategies,
   engine equivalence, and the tree oracle. *)

open Lazy_xml
module Text_model = Lxu_props.Text_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- parsing --------------------------------------------------------- *)

let test_parse_forms () =
  let show s = Path_query.to_string (Path_query.parse_exn s) in
  check_string "bare tag" "//a" (show "a");
  check_string "leading //" "//a//b" (show "//a//b");
  check_string "leading /" "/a/b" (show "/a/b");
  check_string "mixed" "//a/b//c" (show "a/b//c")

let test_parse_errors () =
  let bad s =
    match Path_query.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "empty" true (bad "");
  check_bool "just slash" true (bad "/");
  check_bool "triple slash" true (bad "///a");
  check_bool "trailing slash" true (bad "a/");
  check_bool "space" true (bad "a b")

(* --- the oracle -------------------------------------------------------- *)

(* Final-step matches by the tree oracle over a fresh parse: a chain
   is a twig without predicates. *)
let oracle text path = Lxu_props.Twig_oracle.matches text (Path_query.parse_exn path)

let doc =
  "<site><people><person><profile><interest/><interest/></profile>"
  ^ "<watches><watch/></watches></person><person><profile/></person></people>"
  ^ "<interest/></site>"

let load engine segments =
  let db = Lazy_db.create ~engine () in
  if segments <= 1 then Lazy_db.insert db ~gp:0 doc
  else
    List.iter
      (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
      (Lxu_workload.Chopper.chop ~text:doc ~segments Lxu_workload.Chopper.Balanced);
  db

let paths =
  [
    "//person//interest";
    "//person/profile/interest";
    "/site//interest";
    "/site/people/person";
    "//people//profile";
    "//person/interest";
    "//nosuch//interest";
    "//person//nosuch";
  ]

let test_matches_naive () =
  let db = load Lazy_db.LD 6 in
  List.iter
    (fun path ->
      let expected = oracle doc path in
      Alcotest.(check (list (pair int int))) path expected (Path_query.eval_string db path))
    paths

let test_strategies_and_engines_agree () =
  let dbs =
    [ ("LD", load Lazy_db.LD 6); ("LS", load Lazy_db.LS 6); ("one-segment", load Lazy_db.LD 1) ]
  in
  List.iter
    (fun path ->
      let expected = oracle doc path in
      List.iter
        (fun (name, db) ->
          Alcotest.(check (list (pair int int)))
            (path ^ " on " ^ name)
            expected
            (Path_query.eval_string db path))
        dbs)
    paths

let test_count () =
  let db = load Lazy_db.LD 4 in
  check_int "interests under persons" 2 (Path_query.count db "//person//interest");
  check_int "all interests" 3 (Path_query.count db "//interest");
  check_int "rooted" 3 (Path_query.count db "/site//interest")

let test_eval_after_update () =
  let db = load Lazy_db.LD 4 in
  let before = Path_query.count db "//person//interest" in
  (* Add an interest inside the second person's profile. *)
  let text = Lazy_db.text db in
  let needle = "<profile/>" in
  let n = String.length needle in
  let rec find i = if String.sub text i n = needle then i else find (i + 1) in
  let at = find 0 + String.length "<profile" in
  (* Replace the self-closing profile by inserting... instead insert a
     whole new watches sibling before it. *)
  ignore at;
  let pos = find 0 in
  Lazy_db.insert db ~gp:pos "<profile><interest/></profile>";
  check_int "one more" (before + 1) (Path_query.count db "//person//interest");
  check_bool "oracle agrees" true
    (Path_query.eval_string db "//person//interest"
    = oracle (Lazy_db.text db) "//person//interest")

let prop_random_docs =
  let fragments =
    [| "<a/>"; "<b><c/></b>"; "<a><b><c/></b></a>"; "<c><a/></c>"; "<b/><c/>" |]
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 10) (pair (int_bound 1000) (int_bound 4))) in
  QCheck2.Test.make ~name:"path query = naive on random docs" ~count:60 gen
    (fun picks ->
      let db = Lazy_db.create () in
      let text = ref "" in
      List.iter
        (fun (pick, fi) ->
          let frag = fragments.(fi) in
          match Text_model.valid_insert_points !text frag with
          | [] -> ()
          | ps ->
            let gp = List.nth ps (pick mod List.length ps) in
            Lazy_db.insert db ~gp frag;
            text := Text_model.splice !text ~gp frag)
        picks;
      List.for_all
        (fun path ->
          oracle !text path = Path_query.eval_string db path
          && oracle !text path = Path_query.eval_string ~plan:`Naive db path)
        [ "//a//c"; "//a/b/c"; "/a//c"; "//b/c"; "//a//b//c" ])

(* Inserts interleaved with removes, so segments carry tombstones and
   removed children: the lazy extents must still translate every
   surviving label to the position the oracle sees in the text. *)
let prop_random_docs_with_removes =
  let fragments =
    [| "<a/>"; "<b><c/></b>"; "<a><b><c/></b></a>"; "<c><a/></c>"; "<b/><c/>"; "<a>t<c/></a>" |]
  in
  let gen =
    QCheck2.Gen.(list_size (int_range 2 14) (triple (int_bound 4) (int_bound 1000) (int_bound 5)))
  in
  QCheck2.Test.make ~name:"path query = naive after removes" ~count:80 gen (fun edits ->
      let dbs = [ Lazy_db.create ~engine:Lazy_db.LD (); Lazy_db.create ~engine:Lazy_db.LS () ] in
      let text = ref "" in
      List.iter
        (fun (kind, pick, fi) ->
          match (kind, Text_model.element_extents !text) with
          | 0, (_ :: _ as ext) ->
            let s, e = List.nth ext (pick mod List.length ext) in
            List.iter (fun db -> Lazy_db.remove db ~gp:s ~len:(e - s)) dbs;
            text := Text_model.cut !text ~gp:s ~len:(e - s)
          | _ -> (
            let frag = fragments.(fi) in
            match Text_model.valid_insert_points !text frag with
            | [] -> ()
            | ps ->
              let gp = List.nth ps (pick mod List.length ps) in
              List.iter (fun db -> Lazy_db.insert db ~gp frag) dbs;
              text := Text_model.splice !text ~gp frag))
        edits;
      List.for_all
        (fun db ->
          List.for_all
            (fun path -> oracle !text path = Path_query.eval_string db path)
            [ "//a//c"; "//a/b/c"; "/a//c"; "//b/c"; "//a//b//c"; "//c"; "//a/c" ])
        dbs)

let suite =
  [
    Alcotest.test_case "parse forms" `Quick test_parse_forms;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "matches naive oracle" `Quick test_matches_naive;
    Alcotest.test_case "strategies and engines agree" `Quick test_strategies_and_engines_agree;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "eval after update" `Quick test_eval_after_update;
    QCheck_alcotest.to_alcotest prop_random_docs;
    QCheck_alcotest.to_alcotest prop_random_docs_with_removes;
  ]

(* --- twig predicates ---------------------------------------------------- *)

let twig_doc =
  "<site><person><profile><interest/></profile><name>a</name></person>"
  ^ "<person><name>b</name></person>"
  ^ "<person><profile/><watches><watch/></watches><name>c</name></person></site>"

let twig_paths =
  [
    "//person[profile]/name";
    "//person[profile/interest]/name";
    "//person[profile][watches]/name";
    "//person[watches/watch]//name";
    "//site[person[profile/interest]]//watch";
    "//person[nosuch]/name";
    "/site/person[profile]";
    "//person[profile[interest]]";
  ]

let test_twig_predicates () =
  List.iter
    (fun engine ->
      let db = Lazy_db.create ~engine () in
      Lazy_db.insert db ~gp:0 twig_doc;
      List.iter
        (fun path ->
          let expected = oracle twig_doc path in
          Alcotest.(check (list (pair int int)))
            (path ^ " / " ^ (match engine with Lazy_db.LD -> "LD" | Lazy_db.LS -> "LS"))
            expected
            (Path_query.eval_string db path))
        twig_paths)
    [ Lazy_db.LD; Lazy_db.LS ]

let test_twig_segmented () =
  let db = Lazy_db.create () in
  List.iter
    (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
    (Lxu_workload.Chopper.chop ~text:twig_doc ~segments:6 Lxu_workload.Chopper.Balanced);
  List.iter
    (fun path ->
      Alcotest.(check (list (pair int int)))
        path (oracle twig_doc path) (Path_query.eval_string db path))
    twig_paths

let test_twig_parse_roundtrip () =
  List.iter
    (fun path ->
      let t = Path_query.parse_exn path in
      let printed = Path_query.to_string t in
      check_bool (path ^ " reparses") true (Path_query.parse_exn printed = t))
    twig_paths

let test_twig_parse_errors () =
  let bad s = match Path_query.parse s with Ok _ -> false | Error _ -> true in
  check_bool "unclosed" true (bad "//a[b");
  check_bool "empty pred" true (bad "//a[]");
  check_bool "stray bracket" true (bad "//a]b")

let prop_twig_random =
  let fragments =
    [| "<a/>"; "<b><c/></b>"; "<a><b><c/></b></a>"; "<c><a/></c>"; "<b/><c/>" |]
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 8) (pair (int_bound 1000) (int_bound 4))) in
  QCheck2.Test.make ~name:"twig predicates = tree oracle on random docs" ~count:50 gen
    (fun picks ->
      let db = Lazy_db.create () in
      let text = ref "" in
      List.iter
        (fun (pick, fi) ->
          let frag = fragments.(fi) in
          match Text_model.valid_insert_points !text frag with
          | [] -> ()
          | ps ->
            let gp = List.nth ps (pick mod List.length ps) in
            Lazy_db.insert db ~gp frag;
            text := Text_model.splice !text ~gp frag)
        picks;
      List.for_all
        (fun path -> oracle !text path = Path_query.eval_string db path)
        [ "//a[b]"; "//a[b/c]"; "//b[c]//c"; "//a[b][c]"; "/a[b//c]"; "//c[a]" ])

let suite =
  suite
  @ [
      Alcotest.test_case "twig predicates (all engines)" `Quick test_twig_predicates;
      Alcotest.test_case "twig over segments" `Quick test_twig_segmented;
      Alcotest.test_case "twig parse roundtrip" `Quick test_twig_parse_roundtrip;
      Alcotest.test_case "twig parse errors" `Quick test_twig_parse_errors;
      QCheck_alcotest.to_alcotest prop_twig_random;
    ]

(* --- predicate-free chains ----------------------------------------------- *)

(* A predicate-free chain under the default plan runs no join at all:
   it is one hop, answered from the path slots in the last tag's
   columns. *)
let test_chain_runs_no_join () =
  let db = load Lazy_db.LD 6 in
  List.iter
    (fun path ->
      let before = Lxu_join.Lazy_join.runs () in
      let got = Path_query.eval_string db path in
      check_int (path ^ ": no join") before (Lxu_join.Lazy_join.runs ());
      Alcotest.(check (list (pair int int))) path (oracle doc path) got;
      (* The reference composition does join. *)
      ignore (Path_query.eval_string ~plan:`Naive db path))
    paths;
  check_bool "naive joined" true (Lxu_join.Lazy_join.runs () > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "predicate-free chain runs no join" `Quick test_chain_runs_no_join;
      QCheck_alcotest.to_alcotest (Lxu_props.Partition_props.all_plans_agree ~count:120);
      QCheck_alcotest.to_alcotest (Lxu_props.Partition_props.predicated_twigs_agree ~count:120);
    ]

(* --- slot-restricted candidates ---------------------------------------- *)

(* The reversed twig of the perf gate's plan group: 2,500 common
   <g><a><b/>x4</a></g> groups and 40 rare <g><q><a><b><c/></b></a></q></g>
   groups in 80 segments (under one root element).  Only the 40 bs
   under a q can hold a c, so they are the step's only candidates and
   no join reads the 10,000 others. *)
let test_reversed_twig_candidates () =
  let buf = Buffer.create 100_000 in
  Buffer.add_string buf "<r>";
  for i = 1 to 2500 do
    Buffer.add_string buf "<g><a><b/><b/><b/><b/></a></g>";
    if i mod 62 = 0 then Buffer.add_string buf "<g><q><a><b><c/></b></a></q></g>"
  done;
  Buffer.add_string buf "</r>";
  let text = Buffer.contents buf in
  let db = Lazy_db.create ~engine:Lazy_db.LD () in
  List.iter
    (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
    (Lxu_workload.Chopper.chop ~text ~segments:80 Lxu_workload.Chopper.Balanced);
  let twig = Path_query.parse_exn "//a//b[c]//c" in
  let explained, matches = Path_query.explain db twig in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length explained && (String.sub explained i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "40 b candidates" true (contains "step 1 //b: 40 candidates, 40 survivors");
  check_int "40 matches" 40 (List.length matches);
  Alcotest.(check (list (pair int int))) "= tree oracle" (oracle text "//a//b[c]//c") matches;
  check_int "count = matches" 40 (Path_query.count db "//a//b[c]//c");
  check_int "naive count" 40 (Path_query.count ~plan:`Naive db "//a//b[c]//c")

let suite =
  suite
  @ [ Alcotest.test_case "reversed twig: 40 b candidates" `Quick test_reversed_twig_candidates ]
