(* Tests for the order-maintenance list labeling and the W-BOX-style
   element store built on it. *)

open Lxu_baselines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Order_label ------------------------------------------------------ *)

let test_order_basics () =
  let t = Order_label.create () in
  let a = Order_label.insert_first t in
  let c = Order_label.insert_after t a in
  let b = Order_label.insert_after t a in
  check_bool "a < b" true (Order_label.compare a b < 0);
  check_bool "b < c" true (Order_label.compare b c < 0);
  check_int "size" 3 (Order_label.size t);
  Order_label.check t

let test_order_before () =
  let t = Order_label.create () in
  let b = Order_label.insert_first t in
  let a = Order_label.insert_before t b in
  check_bool "a < b" true (Order_label.compare a b < 0);
  Order_label.check t

let test_order_remove () =
  let t = Order_label.create () in
  let a = Order_label.insert_first t in
  let b = Order_label.insert_after t a in
  Order_label.remove t a;
  check_int "size" 1 (Order_label.size t);
  Order_label.check t;
  Alcotest.check_raises "compare removed" (Invalid_argument "Order_label: removed item")
    (fun () -> ignore (Order_label.compare a b))

let test_order_insert_first_nonempty () =
  let t = Order_label.create () in
  ignore (Order_label.insert_first t);
  Alcotest.check_raises "nonempty" (Invalid_argument "Order_label.insert_first: list not empty")
    (fun () -> ignore (Order_label.insert_first t))

(* The adversary: keep inserting between the same two neighbours.
   Correct order must survive and relabels must stay subquadratic. *)
let test_order_bisection_adversary () =
  let t = Order_label.create () in
  let left = Order_label.insert_first t in
  let right = Order_label.insert_after t left in
  let prev = ref left in
  let n = 2000 in
  for i = 1 to n do
    let m =
      if i land 1 = 0 then Order_label.insert_after t !prev
      else Order_label.insert_before t right
    in
    check_bool "ordered" true
      (Order_label.compare !prev m < 0 || Order_label.compare m right < 0);
    prev := m
  done;
  Order_label.check t;
  let r = Order_label.relabels t in
  check_bool "subquadratic relabels" true (r < n * 64);
  check_bool "some relabels happened" true (r > 0)

let prop_order_random_ops =
  let gen = QCheck2.Gen.(list_size (int_range 1 300) (pair (int_bound 10_000) bool)) in
  QCheck2.Test.make ~name:"order list stays sorted under random ops" ~count:60 gen
    (fun ops ->
      let t = Order_label.create () in
      let items = ref [| Order_label.insert_first t |] in
      List.iter
        (fun (pick, before) ->
          let arr = !items in
          let target = arr.(pick mod Array.length arr) in
          let fresh =
            if before then Order_label.insert_before t target
            else Order_label.insert_after t target
          in
          items := Array.append arr [| fresh |])
        ops;
      Order_label.check t;
      true)

(* --- Box_store -------------------------------------------------------- *)

let test_box_tree () =
  let t = Box_store.create () in
  let r = Box_store.insert_last_child t ~parent:None in
  let c1 = Box_store.insert_last_child t ~parent:(Some r) in
  let c2 = Box_store.insert_last_child t ~parent:(Some r) in
  let g = Box_store.insert_first_child t ~parent:(Some c2) in
  check_int "count" 4 (Box_store.element_count t);
  check_bool "r anc c1" true (Box_store.is_ancestor t r c1);
  check_bool "r anc g" true (Box_store.is_ancestor t r g);
  check_bool "c2 anc g" true (Box_store.is_ancestor t c2 g);
  check_bool "c1 not anc g" false (Box_store.is_ancestor t c1 g);
  check_bool "not reflexive" false (Box_store.is_ancestor t r r);
  check_bool "r parent c1" true (Box_store.is_parent t r c1);
  check_bool "r not parent g" false (Box_store.is_parent t r g);
  check_int "levels" 2 (Box_store.level g);
  check_bool "doc order" true (Box_store.document_compare t c1 c2 < 0);
  Box_store.check t

let test_box_siblings_and_roots () =
  let t = Box_store.create () in
  let r1 = Box_store.insert_last_child t ~parent:None in
  let r2 = Box_store.insert_after t r1 in
  let r0 = Box_store.insert_first_child t ~parent:None in
  check_bool "r0 first" true (Box_store.document_compare t r0 r1 < 0);
  check_bool "r1 before r2" true (Box_store.document_compare t r1 r2 < 0);
  check_bool "roots unrelated" false (Box_store.is_ancestor t r1 r2);
  Box_store.check t

let test_box_remove () =
  let t = Box_store.create () in
  let r = Box_store.insert_last_child t ~parent:None in
  let c = Box_store.insert_last_child t ~parent:(Some r) in
  Alcotest.check_raises "non-leaf" (Invalid_argument "Marker_store.remove: element has children")
    (fun () -> Box_store.remove t r);
  Box_store.remove t c;
  check_int "count" 1 (Box_store.element_count t);
  Box_store.remove t r;
  check_int "empty" 0 (Box_store.element_count t);
  Box_store.check t

let test_box_matches_reference_tree () =
  (* Build the same random tree in Box_store and as a plain structure;
     is_ancestor must agree everywhere. *)
  let rng = Lxu_workload.Rng.create 99 in
  let t = Box_store.create () in
  let nodes = ref [||] in
  let parents = Hashtbl.create 64 in
  for i = 0 to 150 do
    let parent_idx =
      if i = 0 then None else Some (Lxu_workload.Rng.int rng (Array.length !nodes))
    in
    let parent = Option.map (fun j -> (!nodes).(j)) parent_idx in
    let e = Box_store.insert_last_child t ~parent in
    Hashtbl.add parents i parent_idx;
    nodes := Array.append !nodes [| e |]
  done;
  let rec reference_anc i j =
    (* is node i an ancestor of node j in the recorded parent table? *)
    match Hashtbl.find parents j with
    | None -> false
    | Some p -> p = i || reference_anc i p
  in
  let arr = !nodes in
  for i = 0 to Array.length arr - 1 do
    for j = 0 to Array.length arr - 1 do
      if i <> j then
        check_bool
          (Printf.sprintf "anc %d %d" i j)
          (reference_anc i j)
          (Box_store.is_ancestor t arr.(i) arr.(j))
    done
  done;
  Box_store.check t

let test_box_relabels_logarithmic_vs_store () =
  (* Repeated first-child insertion: the traditional store shifts O(n)
     labels per insert; the box store relabels a few markers. *)
  let t = Box_store.create () in
  let r = Box_store.insert_last_child t ~parent:None in
  let n = 1500 in
  for _ = 1 to n do
    ignore (Box_store.insert_first_child t ~parent:(Some r))
  done;
  let per_insert = float_of_int (Box_store.relabels t) /. float_of_int n in
  check_bool "few relabels per insert" true (per_insert < 64.0);
  Box_store.check t

let suite =
  [
    Alcotest.test_case "order basics" `Quick test_order_basics;
    Alcotest.test_case "order insert_before" `Quick test_order_before;
    Alcotest.test_case "order remove" `Quick test_order_remove;
    Alcotest.test_case "order insert_first nonempty" `Quick test_order_insert_first_nonempty;
    Alcotest.test_case "order bisection adversary" `Quick test_order_bisection_adversary;
    QCheck_alcotest.to_alcotest prop_order_random_ops;
    Alcotest.test_case "box tree" `Quick test_box_tree;
    Alcotest.test_case "box siblings and roots" `Quick test_box_siblings_and_roots;
    Alcotest.test_case "box remove" `Quick test_box_remove;
    Alcotest.test_case "box = reference tree" `Quick test_box_matches_reference_tree;
    Alcotest.test_case "box relabels stay small" `Quick test_box_relabels_logarithmic_vs_store;
  ]

(* --- Rank_order / Bbox_store (B-BOX) ----------------------------------- *)

let test_rank_basics () =
  let t = Rank_order.create () in
  let a = Rank_order.insert_first t in
  let c = Rank_order.insert_after t a in
  let b = Rank_order.insert_after t a in
  check_int "rank a" 0 (Rank_order.rank t a);
  check_int "rank b" 1 (Rank_order.rank t b);
  check_int "rank c" 2 (Rank_order.rank t c);
  check_bool "a < b" true (Rank_order.compare t a b < 0);
  check_int "size" 3 (Rank_order.size t);
  check_bool "lookups counted" true (Rank_order.lookups t > 0);
  Rank_order.check t

let test_rank_before_and_remove () =
  let t = Rank_order.create () in
  let b = Rank_order.insert_first t in
  let a = Rank_order.insert_before t b in
  let c = Rank_order.insert_after t b in
  check_int "rank a" 0 (Rank_order.rank t a);
  Rank_order.remove t b;
  check_int "size" 2 (Rank_order.size t);
  check_int "rank c after removal" 1 (Rank_order.rank t c);
  Rank_order.check t;
  Alcotest.check_raises "removed" (Invalid_argument "Rank_order: removed item") (fun () ->
      ignore (Rank_order.rank t b))

let prop_rank_order_random_ops =
  let gen = QCheck2.Gen.(list_size (int_range 1 250) (pair (int_bound 10_000) (int_bound 2))) in
  QCheck2.Test.make ~name:"rank order consistent under random ops" ~count:60 gen
    (fun ops ->
      let t = Rank_order.create () in
      let items = ref [ Rank_order.insert_first t ] in
      List.iter
        (fun (pick, kind) ->
          let arr = Array.of_list !items in
          let target = arr.(pick mod Array.length arr) in
          match kind with
          | 0 -> items := Rank_order.insert_before t target :: !items
          | 1 -> items := Rank_order.insert_after t target :: !items
          | _ ->
            if List.length !items > 1 then begin
              Rank_order.remove t target;
              items := List.filter (fun i -> i != target) !items
            end)
        ops;
      Rank_order.check t;
      true)

let test_rank_no_relabeling_hotspot () =
  (* The B-BOX selling point: a hot-spot insertion pattern needs no
     relabeling at all (nothing is stored), only O(log n) tree work. *)
  let t = Rank_order.create () in
  let first = Rank_order.insert_first t in
  for _ = 1 to 3000 do
    ignore (Rank_order.insert_after t first)
  done;
  Rank_order.check t;
  check_int "size" 3001 (Rank_order.size t);
  check_int "rank of hot spot" 0 (Rank_order.rank t first)

let test_bbox_tree_matches_wbox () =
  (* The two BOX instantiations must answer identically on the same
     random tree. *)
  let rng = Lxu_workload.Rng.create 7 in
  let w = Box_store.create () and b = Bbox_store.create () in
  let ws = ref [||] and bs = ref [||] in
  for i = 0 to 120 do
    let pick = if i = 0 then None else Some (Lxu_workload.Rng.int rng i) in
    let wp = Option.map (fun j -> (!ws).(j)) pick in
    let bp = Option.map (fun j -> (!bs).(j)) pick in
    (match Lxu_workload.Rng.int rng 3 with
    | 0 ->
      ws := Array.append !ws [| Box_store.insert_first_child w ~parent:wp |];
      bs := Array.append !bs [| Bbox_store.insert_first_child b ~parent:bp |]
    | _ ->
      ws := Array.append !ws [| Box_store.insert_last_child w ~parent:wp |];
      bs := Array.append !bs [| Bbox_store.insert_last_child b ~parent:bp |])
  done;
  let wa = !ws and ba = !bs in
  for i = 0 to Array.length wa - 1 do
    for j = 0 to Array.length wa - 1 do
      if i <> j then begin
        check_bool "same ancestry" (Box_store.is_ancestor w wa.(i) wa.(j))
          (Bbox_store.is_ancestor b ba.(i) ba.(j));
        check_bool "same order"
          (Box_store.document_compare w wa.(i) wa.(j) < 0)
          (Bbox_store.document_compare b ba.(i) ba.(j) < 0)
      end
    done
  done;
  Box_store.check w;
  Bbox_store.check b;
  check_bool "bbox counted lookups" true (Bbox_store.lookups b > 0)

let test_bbox_remove () =
  let t = Bbox_store.create () in
  let r = Bbox_store.insert_last_child t ~parent:None in
  let c = Bbox_store.insert_last_child t ~parent:(Some r) in
  Alcotest.check_raises "non-leaf" (Invalid_argument "Marker_store.remove: element has children")
    (fun () -> Bbox_store.remove t r);
  Bbox_store.remove t c;
  Bbox_store.remove t r;
  check_int "empty" 0 (Bbox_store.element_count t);
  Bbox_store.check t

let suite =
  suite
  @ [
      Alcotest.test_case "rank order basics" `Quick test_rank_basics;
      Alcotest.test_case "rank order before/remove" `Quick test_rank_before_and_remove;
      QCheck_alcotest.to_alcotest prop_rank_order_random_ops;
      Alcotest.test_case "rank order hot spot" `Quick test_rank_no_relabeling_hotspot;
      Alcotest.test_case "bbox = wbox answers" `Quick test_bbox_tree_matches_wbox;
      Alcotest.test_case "bbox remove" `Quick test_bbox_remove;
    ]
