(* Tests for the labeling schemes: interval store (traditional
   baseline) and PRIME. *)

open Lxu_baselines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Interval ------------------------------------------------------ *)

let test_interval_predicates () =
  let a = Interval.make ~start:0 ~stop:100 ~level:0 in
  let b = Interval.make ~start:10 ~stop:20 ~level:1 in
  let c = Interval.make ~start:12 ~stop:18 ~level:2 in
  let d = Interval.make ~start:30 ~stop:40 ~level:3 in
  check_bool "a contains b" true (Interval.contains a b);
  check_bool "b not contains a" false (Interval.contains b a);
  check_bool "b not contains d" false (Interval.contains b d);
  check_bool "a parent of b" true (Interval.is_parent a b);
  check_bool "a not parent of c" false (Interval.is_parent a c);
  check_bool "self" false (Interval.contains a a)

let test_interval_shift () =
  let l = Interval.make ~start:10 ~stop:20 ~level:1 in
  let s = Interval.shift l ~by:5 ~from:15 in
  check_int "start untouched" 10 s.Interval.start;
  check_int "stop shifted" 25 s.Interval.stop;
  let s2 = Interval.shift l ~by:5 ~from:5 in
  check_int "both shifted" 15 s2.Interval.start

let test_interval_invalid () =
  Alcotest.check_raises "start >= stop" (Invalid_argument "Interval.make: start >= stop")
    (fun () -> ignore (Interval.make ~start:5 ~stop:5 ~level:0))

(* --- Interval_store ------------------------------------------------ *)

let test_store_build () =
  let s = Interval_store.create () in
  Interval_store.insert s ~gp:0 "<a><b>x</b><b>y</b></a>";
  check_int "doc length" 23 (Interval_store.doc_length s);
  check_int "elements" 3 (Interval_store.element_count s);
  Alcotest.(check (list string)) "tags" [ "a"; "b" ] (Interval_store.tags s);
  let bs = Interval_store.elements s ~tag:"b" in
  check_int "two b" 2 (Array.length bs);
  check_int "b level" 1 bs.(0).Interval.level;
  Interval_store.check s

let test_store_insert_shifts () =
  let s = Interval_store.create () in
  Interval_store.insert s ~gp:0 "<a><b/></a>";
  (* "<a><b/></a>" : a=[0,11), b=[3,7) *)
  Interval_store.insert s ~gp:3 "<c/>";
  let a = (Interval_store.elements s ~tag:"a").(0) in
  let b = (Interval_store.elements s ~tag:"b").(0) in
  let c = (Interval_store.elements s ~tag:"c").(0) in
  check_int "a start" 0 a.Interval.start;
  check_int "a stop grew" 15 a.Interval.stop;
  check_int "b shifted" 7 b.Interval.start;
  check_int "c at insertion point" 3 c.Interval.start;
  check_int "c level" 1 c.Interval.level;
  check_int "relabel count" 2 (Interval_store.last_relabel_count s);
  Interval_store.check s

let test_store_nested_level () =
  let s = Interval_store.create () in
  Interval_store.insert s ~gp:0 "<a><b></b></a>";
  (* Insert inside b: depth 2. *)
  Interval_store.insert s ~gp:6 "<c/>";
  let c = (Interval_store.elements s ~tag:"c").(0) in
  check_int "c level" 2 c.Interval.level

let test_store_remove () =
  let s = Interval_store.create () in
  Interval_store.insert s ~gp:0 "<a><b>x</b><c/></a>";
  (* Remove "<b>x</b>" = [3, 11). *)
  Interval_store.remove s ~gp:3 ~len:8;
  check_int "elements" 2 (Interval_store.element_count s);
  check_int "doc length" 11 (Interval_store.doc_length s);
  let c = (Interval_store.elements s ~tag:"c").(0) in
  check_int "c shifted" 3 c.Interval.start;
  check_int "b gone" 0 (Array.length (Interval_store.elements s ~tag:"b"));
  Interval_store.check s

let test_store_out_of_bounds () =
  let s = Interval_store.create () in
  Alcotest.check_raises "insert"
    (Invalid_argument "Interval_store.insert: gp out of bounds") (fun () ->
      Interval_store.insert s ~gp:5 "<a/>");
  Alcotest.check_raises "remove"
    (Invalid_argument "Interval_store.remove: range out of bounds") (fun () ->
      Interval_store.remove s ~gp:0 ~len:1)

(* The store after any insertion sequence must equal a store built by
   one-shot parsing of the final text. *)
let store_matches_fresh_parse edits =
  let s = Interval_store.create () in
  let text = ref "" in
  List.iter
    (fun (gp, frag) ->
      let gp = if String.length !text = 0 then 0 else gp mod (String.length !text + 1) in
      (* Only apply edits at valid split points: between nodes. *)
      match Lxu_xml.Parser.parse_fragment_result !text with
      | Error _ -> ()
      | Ok _ ->
        let candidate = Lxu_props.Text_model.splice !text ~gp frag in
        if Lxu_xml.Parser.is_well_formed_fragment candidate then begin
          Interval_store.insert s ~gp frag;
          text := candidate
        end)
    edits;
  let fresh = Interval_store.create () in
  if !text <> "" then Interval_store.insert fresh ~gp:0 !text;
  List.for_all
    (fun tag ->
      Interval_store.elements s ~tag = Interval_store.elements fresh ~tag)
    (Interval_store.tags fresh)
  && Interval_store.tags s = Interval_store.tags fresh

let prop_store_incremental_equals_batch =
  let frag_gen =
    QCheck2.Gen.(
      oneofl
        [ "<a/>"; "<b>t</b>"; "<c><a/></c>"; "<d at=\"1\"><b/><b/></d>"; "<e>x<a/>y</e>" ])
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 12) (pair (int_bound 500) frag_gen)) in
  QCheck2.Test.make ~name:"interval store: incremental = batch" ~count:200 gen
    store_matches_fresh_parse

(* --- PRIME --------------------------------------------------------- *)

let test_prime_chain () =
  let t = Prime_label.create ~k:3 ~capacity:100 () in
  let r = Prime_label.append t ~parent:None in
  let c1 = Prime_label.append t ~parent:(Some r) in
  let c2 = Prime_label.append t ~parent:(Some r) in
  let g = Prime_label.append t ~parent:(Some c1) in
  check_bool "root anc c1" true (Prime_label.is_ancestor r c1);
  check_bool "root anc g" true (Prime_label.is_ancestor r g);
  check_bool "c1 anc g" true (Prime_label.is_ancestor c1 g);
  check_bool "c2 not anc g" false (Prime_label.is_ancestor c2 g);
  check_bool "not self" false (Prime_label.is_ancestor c1 c1);
  check_bool "not reversed" false (Prime_label.is_ancestor g r);
  Prime_label.check t

let test_prime_orders () =
  let t = Prime_label.create ~k:4 ~capacity:100 () in
  let r = Prime_label.append t ~parent:None in
  let kids = List.init 10 (fun _ -> Prime_label.append t ~parent:(Some r)) in
  List.iteri (fun i n -> check_int "order" (i + 1) (Prime_label.order_of t n)) kids;
  Prime_label.check t

let test_prime_middle_insert_recomputes () =
  let t = Prime_label.create ~k:2 ~capacity:100 () in
  let r = Prime_label.append t ~parent:None in
  for _ = 1 to 9 do
    ignore (Prime_label.append t ~parent:(Some r))
  done;
  let before = Prime_label.sc_recomputations t in
  (* Insert at the very beginning of the children: all 5+ groups shift. *)
  ignore (Prime_label.insert t ~parent:(Some r) ~order_pos:1);
  let delta = Prime_label.sc_recomputations t - before in
  check_bool "all groups recomputed" true (delta >= 5);
  Prime_label.check t

let test_prime_capacity () =
  let t = Prime_label.create ~k:2 ~capacity:3 () in
  let r = Prime_label.append t ~parent:None in
  ignore (Prime_label.append t ~parent:(Some r));
  ignore (Prime_label.append t ~parent:(Some r));
  Alcotest.check_raises "full" (Invalid_argument "Prime_label.insert: capacity exceeded")
    (fun () -> ignore (Prime_label.append t ~parent:(Some r)))

let prop_prime_random_inserts =
  let gen = QCheck2.Gen.(list_size (int_range 1 40) (int_bound 1000)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"prime orders survive random middle inserts" ~count:50 gen
       (fun picks ->
         let t = Prime_label.create ~k:3 ~capacity:200 () in
         let r = Prime_label.append t ~parent:None in
         List.iter
           (fun p ->
             let pos = 1 + (p mod Prime_label.size t) in
             ignore (Prime_label.insert t ~parent:(Some r) ~order_pos:pos))
           picks;
         Prime_label.check t;
         true))

let suite =
  [
    Alcotest.test_case "interval predicates" `Quick test_interval_predicates;
    Alcotest.test_case "interval shift" `Quick test_interval_shift;
    Alcotest.test_case "interval invalid" `Quick test_interval_invalid;
    Alcotest.test_case "store build" `Quick test_store_build;
    Alcotest.test_case "store insert shifts" `Quick test_store_insert_shifts;
    Alcotest.test_case "store nested level" `Quick test_store_nested_level;
    Alcotest.test_case "store remove" `Quick test_store_remove;
    Alcotest.test_case "store out of bounds" `Quick test_store_out_of_bounds;
    QCheck_alcotest.to_alcotest prop_store_incremental_equals_batch;
    Alcotest.test_case "prime ancestry chain" `Quick test_prime_chain;
    Alcotest.test_case "prime orders" `Quick test_prime_orders;
    Alcotest.test_case "prime middle insert recomputes" `Quick
      test_prime_middle_insert_recomputes;
    Alcotest.test_case "prime capacity" `Quick test_prime_capacity;
    prop_prime_random_inserts;
  ]
