(* Tests for the additional join algorithms: Stack-Tree-Anc, MPMGJN and
   the XR-tree join.  Oracle: Stack-Tree-Desc / naive join re-sorted as
   needed. *)

open Lxu_join
open Lxu_labeling

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pair_list = Alcotest.(list (pair int int))

let fresh_labels text ~tag =
  let nodes = Lxu_xml.Parser.parse_fragment text in
  let acc = ref [] in
  Lxu_xml.Tree.iter_elements nodes (fun e ~level ->
      if e.Lxu_xml.Tree.tag = tag then
        acc := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end, level) :: !acc);
  List.sort compare !acc

let intervals text ~tag =
  Array.of_list
    (List.map (fun (s, e, l) -> Interval.make ~start:s ~stop:e ~level:l) (fresh_labels text ~tag))

let starts pairs =
  List.map (fun ((a : Interval.t), (d : Interval.t)) -> (a.Interval.start, d.Interval.start)) pairs

(* Deterministic random documents shared by the equivalence tests. *)
let mk_doc seed =
  let st = Random.State.make [| seed |] in
  let buf = Buffer.create 128 in
  let budget = ref 40 in
  let rec gen depth =
    if !budget > 0 && depth <= 6 then begin
      let tag = [| "a"; "d"; "x" |].(Random.State.int st 3) in
      decr budget;
      Buffer.add_string buf (Printf.sprintf "<%s>" tag);
      for _ = 1 to Random.State.int st 3 do
        gen (depth + 1)
      done;
      Buffer.add_string buf (Printf.sprintf "</%s>" tag)
    end
  in
  while !budget > 0 do
    gen 0
  done;
  Buffer.contents buf

(* --- Stack-Tree-Anc --------------------------------------------------- *)

let test_sta_order () =
  let text = "<a><b/><a><b/></a></a><b/>" in
  let pairs, _ = Stack_tree_anc.join ~anc:(intervals text ~tag:"a") ~desc:(intervals text ~tag:"b") () in
  (* Sorted by (ancestor, descendant). *)
  Alcotest.check pair_list "anc order" [ (0, 3); (0, 10); (7, 10) ] (starts pairs)

let test_sta_equals_std_as_sets () =
  for seed = 1 to 30 do
    let text = mk_doc seed in
    let anc = intervals text ~tag:"a" and desc = intervals text ~tag:"d" in
    List.iter
      (fun axis ->
        let d_pairs, _ = Stack_tree_desc.join ~axis ~anc ~desc () in
        let a_pairs, _ = Stack_tree_anc.join ~axis ~anc ~desc () in
        let expected = List.sort compare (starts d_pairs) in
        Alcotest.check pair_list
          (Printf.sprintf "seed %d same set" seed)
          expected
          (List.sort compare (starts a_pairs));
        (* And the emitted order is ancestor-major. *)
        check_bool "sorted by anc" true
          (starts a_pairs = List.sort (fun (a1, d1) (a2, d2) -> compare (a1, d1) (a2, d2)) (starts a_pairs)))
      [ Stack_tree_desc.Descendant; Stack_tree_desc.Child ]
  done

let test_sta_empty () =
  let pairs, _ = Stack_tree_anc.join ~anc:[||] ~desc:[||] () in
  check_int "empty" 0 (List.length pairs)

(* --- MPMGJN ------------------------------------------------------------ *)

let test_mpmgjn_equals_std () =
  for seed = 1 to 30 do
    let text = mk_doc (100 + seed) in
    let anc = intervals text ~tag:"a" and desc = intervals text ~tag:"d" in
    List.iter
      (fun axis ->
        let d_pairs, _ = Stack_tree_desc.join ~axis ~anc ~desc () in
        let m_pairs, _ = Mpmgjn.join ~axis ~anc ~desc () in
        Alcotest.check pair_list
          (Printf.sprintf "seed %d" seed)
          (List.sort compare (starts d_pairs))
          (List.sort compare (starts m_pairs)))
      [ Stack_tree_desc.Descendant; Stack_tree_desc.Child ]
  done

let test_mpmgjn_rescans () =
  (* Nested ancestors force re-scans: d_scanned exceeds the
     descendant-list length. *)
  let text = "<a><a><a><d/><d/><d/></a></a></a>" in
  let _, stats = Mpmgjn.join ~anc:(intervals text ~tag:"a") ~desc:(intervals text ~tag:"d") () in
  check_bool "rescans counted" true (stats.Stack_tree_desc.d_scanned > 3);
  (* Stack-Tree-Desc reads each descendant once. *)
  let _, std_stats =
    Stack_tree_desc.join ~anc:(intervals text ~tag:"a") ~desc:(intervals text ~tag:"d") ()
  in
  check_int "std reads each d once" 3 std_stats.Stack_tree_desc.d_scanned

let suite =
  [
    Alcotest.test_case "stack-tree-anc order" `Quick test_sta_order;
    Alcotest.test_case "stack-tree-anc = std (sets)" `Quick test_sta_equals_std_as_sets;
    Alcotest.test_case "stack-tree-anc empty" `Quick test_sta_empty;
    Alcotest.test_case "mpmgjn = std" `Quick test_mpmgjn_equals_std;
    Alcotest.test_case "mpmgjn rescans counted" `Quick test_mpmgjn_rescans;
  ]

(* --- XR-tree index and join --------------------------------------------- *)

let test_xr_index_probes () =
  let text = "<a><a><d/></a><d/></a><d/>" in
  let anc = Xr_index.build (intervals text ~tag:"a") in
  check_int "length" 2 (Xr_index.length anc);
  check_int "first_from 0" 0 (Xr_index.first_from anc 0);
  check_int "first_from 1" 1 (Xr_index.first_from anc 1);
  check_int "first_from 4" 2 (Xr_index.first_from anc 4);
  check_int "first_from 99" 2 (Xr_index.first_from anc 99);
  (* Position 7 (inside the inner d) is contained in both a's. *)
  Alcotest.(check (list int)) "stab inner" [ 0; 1 ] (Xr_index.stab anc 7);
  Alcotest.(check (list int)) "stab outer only" [ 0 ] (Xr_index.stab anc 15);
  Alcotest.(check (list int)) "stab outside" [] (Xr_index.stab anc 23);
  check_bool "probes counted" true (Xr_index.probes anc > 0)

let test_xr_index_rejects_unsorted () =
  let i1 = Interval.make ~start:10 ~stop:20 ~level:0 in
  let i2 = Interval.make ~start:0 ~stop:5 ~level:0 in
  Alcotest.check_raises "unsorted" (Invalid_argument "Xr_index.build: not sorted by start")
    (fun () -> ignore (Xr_index.build [| i1; i2 |]))

let test_xr_join_equals_std () =
  for seed = 1 to 30 do
    let text = mk_doc (300 + seed) in
    let anc = intervals text ~tag:"a" and desc = intervals text ~tag:"d" in
    List.iter
      (fun axis ->
        let d_pairs, _ = Stack_tree_desc.join ~axis ~anc ~desc () in
        let x_pairs, _ =
          Xr_join.join ~axis ~anc:(Xr_index.build anc) ~desc:(Xr_index.build desc) ()
        in
        Alcotest.check pair_list
          (Printf.sprintf "seed %d" seed)
          (List.sort compare (starts d_pairs))
          (List.sort compare (starts x_pairs)))
      [ Stack_tree_desc.Descendant; Stack_tree_desc.Child ]
  done

let test_xr_join_skips () =
  (* One tiny A-list against a long D-list mostly outside the A's:
     the ancestor-driven strategy must not touch the useless Ds. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<a><d/><d/></a>";
  for _ = 1 to 200 do
    Buffer.add_string buf "<x><d/></x>"
  done;
  let text = Buffer.contents buf in
  let anc = Xr_index.build (intervals text ~tag:"a") in
  let desc = Xr_index.build (intervals text ~tag:"d") in
  let pairs, stats = Xr_join.join ~anc ~desc () in
  check_int "pairs" 2 (List.length pairs);
  check_int "d touched" 2 stats.Stack_tree_desc.d_scanned;
  check_bool "skipped the rest" true (stats.Stack_tree_desc.d_scanned < 10)

let test_xr_join_stab_side () =
  (* Long A-list, short D-list: the descendant-driven strategy stabs
     instead of scanning ancestors. *)
  let buf = Buffer.create 256 in
  for _ = 1 to 100 do
    Buffer.add_string buf "<a>t</a>"
  done;
  Buffer.add_string buf "<a><a><d/></a></a>";
  let text = Buffer.contents buf in
  let anc = Xr_index.build (intervals text ~tag:"a") in
  let desc = Xr_index.build (intervals text ~tag:"d") in
  let pairs, stats = Xr_join.join ~anc ~desc () in
  check_int "pairs" 2 (List.length pairs);
  check_bool "ancestors fetched, not scanned" true (stats.Stack_tree_desc.a_scanned <= 4)

let suite =
  suite
  @ [
      Alcotest.test_case "xr index probes" `Quick test_xr_index_probes;
      Alcotest.test_case "xr index rejects unsorted" `Quick test_xr_index_rejects_unsorted;
      Alcotest.test_case "xr join = std" `Quick test_xr_join_equals_std;
      Alcotest.test_case "xr join skips descendants" `Quick test_xr_join_skips;
      Alcotest.test_case "xr join stabs ancestors" `Quick test_xr_join_stab_side;
    ]
