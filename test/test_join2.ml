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

(* --- Lazy-Join semi-joins ---------------------------------------------- *)

(* Every element of a parsed forest with its level and root-to-element
   tag path. *)
let labels_with_paths text =
  let acc = ref [] in
  let rec walk path level = function
    | Lxu_xml.Tree.Element e ->
      let path = path @ [ e.Lxu_xml.Tree.tag ] in
      acc := (e.Lxu_xml.Tree.tag, (e.e_start, e.e_end, level), path) :: !acc;
      List.iter (walk path (level + 1)) e.children
    | _ -> ()
  in
  List.iter (walk [] 0) (Lxu_xml.Parser.parse_fragment text);
  !acc

(* The semi-join property: on random LD/LS stores (chopped random
   documents, some whole elements removed, 1 or 4 domains), both sides
   of [Lazy_join.semi] — restricted or not, every slot a candidate or a
   random half of the paths — equal the distinct ancestors and the
   distinct descendants of [Naive_join]'s pairs among the candidates.
   The [ok] table is the plain axis check: any depth above for
   Descendant, the depth right above for Child. *)
let prop_semi_join =
  let open Lazy_xml in
  QCheck2.Test.make ~name:"semi-join sides = naive pairs' distinct ends" ~count:60 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let engine = if seed mod 2 = 0 then Lazy_db.LD else Lazy_db.LS in
      let domains = if seed mod 4 < 2 then 1 else 4 in
      let db = Lazy_db.create ~engine ~domains () in
      let params =
        { Lxu_workload.Generator.default_params with tags = [| "a"; "b"; "d" |]; text_chance_pct = 10 }
      in
      let text =
        Lxu_workload.Generator.generate_text ~params ~seed ~target_elements:(40 + (seed mod 60)) ()
      in
      List.iter
        (fun (gp, frag) -> Lazy_db.insert db ~gp frag)
        (Lxu_workload.Chopper.chop ~text ~segments:(4 + (seed mod 12))
           (if seed mod 3 = 0 then Lxu_workload.Chopper.Nested else Lxu_workload.Chopper.Balanced));
      for _ = 1 to Random.State.int st 3 do
        match labels_with_paths (Lazy_db.text db) with
        | [] -> ()
        | l ->
          let _, (s, e, _), _ = List.nth l (Random.State.int st (List.length l)) in
          Lazy_db.remove db ~gp:s ~len:(e - s)
      done;
      let log = Option.get (Lazy_db.log db) in
      Lxu_seglog.Update_log.prepare_for_query log;
      let syn = Lxu_seglog.Update_log.synopsis log and reg = Lxu_seglog.Update_log.registry log in
      let nslots = Lxu_seglog.Path_synopsis.slots syn in
      let path_of s =
        Array.to_list
          (Array.map (Lxu_seglog.Tag_registry.name reg) (Lxu_seglog.Path_synopsis.path syn s))
      in
      let anc_tag = [| "a"; "b" |].(Random.State.int st 2) and desc_tag = "d" in
      let tid tag = Option.value (Lxu_seglog.Tag_registry.find reg tag) ~default:(-1) in
      let labels = labels_with_paths (Lazy_db.text db) in
      let cursor = Lxu_seglog.Update_log.cursors log in
      let starts (m : Lazy_join.mask) =
        let acc = ref [] in
        Array.iteri
          (fun k b ->
            for i = 0 to Bytes.length b - 1 do
              if Bytes.get b i <> '\000' then
                acc :=
                  Lxu_seglog.Er_node.cursor_start
                    (cursor m.Lazy_join.entries.(k).Lxu_seglog.Tag_list.sid)
                    m.Lazy_join.cols.(k).Lxu_seglog.Er_node.starts.(i)
                  :: !acc
            done)
          m.Lazy_join.sel;
        List.sort compare !acc
      in
      let depth = Lxu_seglog.Path_synopsis.depth_table syn in
      List.for_all
        (fun (axis, restricted, restrict) ->
          (* A random half of the paths, or all of them. *)
          let keep = Array.init nslots (fun _ -> (not restricted) || Random.State.bool st) in
          let kept_paths = List.filter_map (fun s -> if keep.(s) then Some (path_of s) else None) (List.init nslots Fun.id) in
          let side tag =
            List.filter_map
              (fun (t, lab, path) -> if t = tag && List.mem path kept_paths then Some lab else None)
              labels
          in
          let pairs =
            Naive_join.join ~axis ~anc:(side anc_tag) ~desc:(side desc_tag) ()
          in
          let distinct f = List.sort_uniq compare (List.map f pairs) in
          let ok =
            Array.init nslots (fun s ->
                Bytes.init depth.(s) (fun da ->
                    if axis = Stack_tree_desc.Descendant || da = depth.(s) - 1 then '\001' else '\000'))
          in
          let anc = Lazy_join.select log ~tid:(tid anc_tag) keep
          and desc = Lazy_join.select log ~tid:(tid desc_tag) keep in
          let semi keep =
            starts
              (Lazy_join.semi ~restrict ?pool:(Lazy_db.query_pool db) log ~anc ~desc ~ok ~keep)
          in
          let ctx =
            Printf.sprintf "%s//%s axis=%s restricted=%b restrict=%b" anc_tag desc_tag
              (if axis = Stack_tree_desc.Child then "child" else "desc") restricted restrict
          in
          (semi `Anc = distinct fst || QCheck2.Test.fail_reportf "%s: ancestor side differs" ctx)
          && (semi `Desc = distinct snd || QCheck2.Test.fail_reportf "%s: descendant side differs" ctx))
        [
          (Stack_tree_desc.Descendant, false, true); (Stack_tree_desc.Descendant, true, true);
          (Stack_tree_desc.Child, false, true); (Stack_tree_desc.Child, true, true);
          (Stack_tree_desc.Descendant, true, false); (Stack_tree_desc.Child, true, false);
        ])

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_semi_join;
      QCheck_alcotest.to_alcotest (Lxu_props.Sweep_props.hooks_agree ~count:120);
    ]
