(* Tests for the additional join algorithms: Stack-Tree-Anc and MPMGJN
   against Stack-Tree-Desc, and Lazy-Join's semi-joins against the
   naive join. *)

open Lxu_join
open Lxu_baselines
open Lxu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pair_list = Alcotest.(list (pair int int))

let intervals text ~tag =
  Array.of_list
    (List.map
       (fun (s, e, l) -> Interval.make ~start:s ~stop:e ~level:l)
       (Lxu_props.Text_model.(of_tag (labels text) tag)))

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
      [ Axis.Desc; Axis.Child ]
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
      [ Axis.Desc; Axis.Child ]
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
   documents, some whole elements removed), both sides
   of [Lazy_join.semi] — restricted or not, every slot a candidate or a
   random half of the paths — equal the distinct ancestors and the
   distinct descendants of [Naive_join]'s pairs among the candidates.
   The [ok] table is the plain axis check ([Sweep_props.axis_ok]). *)
let prop_semi_join =
  let open Lazy_xml in
  QCheck2.Test.make ~name:"semi-join sides = naive pairs' distinct ends" ~count:60 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let engine = if seed mod 2 = 0 then Lazy_db.LD else Lazy_db.LS in
      let db = Lazy_db.create ~engine () in
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
            Lxu_props.Naive_join.join ~axis ~anc:(side anc_tag) ~desc:(side desc_tag) ()
          in
          let distinct f = List.sort_uniq compare (List.map f pairs) in
          let ok = Lxu_props.Sweep_props.axis_ok log axis in
          let anc = Lazy_join.select log ~tid:(tid anc_tag) keep
          and desc = Lazy_join.select log ~tid:(tid desc_tag) keep in
          let semi keep =
            Lxu_props.Sweep_props.mask_starts log
              (Lazy_join.semi ~restrict log ~anc ~desc ~ok ~keep)
          in
          let ctx =
            Printf.sprintf "%s//%s axis=%s restricted=%b restrict=%b" anc_tag desc_tag
              (if axis = Axis.Child then "child" else "desc") restricted restrict
          in
          (semi `Anc = distinct fst || QCheck2.Test.fail_reportf "%s: ancestor side differs" ctx)
          && (semi `Desc = distinct snd || QCheck2.Test.fail_reportf "%s: descendant side differs" ctx))
        [
          (Axis.Desc, false, true); (Axis.Desc, true, true);
          (Axis.Child, false, true); (Axis.Child, true, true);
          (Axis.Desc, true, false); (Axis.Child, true, false);
        ])

(* The frame-sweep property's generator reaches the shape whose pairs
   [query] interleaves: a [d]-holding segment inside another. *)
let test_sweep_reaches_nests () =
  let nested =
    List.length
      (List.filter
         (fun seed -> Lxu_props.Sweep_props.(has_nest (fst (build seed))))
         (List.init 60 Fun.id))
  in
  Printf.printf "%d of 60 frame-sweep stores nest D segments\n" nested;
  check_bool "half the stores nest D segments" true (nested >= 30)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_semi_join;
      QCheck_alcotest.to_alcotest (Lxu_props.Sweep_props.hooks_agree ~count:120);
      Alcotest.test_case "frame sweep reaches nested D segments" `Quick test_sweep_reaches_nests;
    ]
