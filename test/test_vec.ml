(* Tests for the growable-array substrate. *)

open Lxu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 7" 49 (Vec.get v 7);
  check_int "last" (99 * 99) (Vec.last v)

let test_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set" (Invalid_argument "Vec: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_insert_remove () =
  let v = Vec.of_list [ 0; 1; 3; 4 ] in
  Vec.insert_at v 2 2;
  check_list "after insert" [ 0; 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.insert_at v 5 5;
  check_list "append via insert" [ 0; 1; 2; 3; 4; 5 ] (Vec.to_list v);
  check_int "removed" 3 (Vec.remove_at v 3);
  check_list "after remove" [ 0; 1; 2; 4; 5 ] (Vec.to_list v);
  Vec.remove_range v 1 3;
  check_list "after remove_range" [ 0; 5 ] (Vec.to_list v);
  (* [move] blits within the vector; overlapping ranges either way. *)
  let v = Vec.of_list [ 0; 1; 2; 3; 4; 5 ] in
  Vec.move v ~src:1 ~dst:2 ~len:3;
  check_list "move right, overlapping" [ 0; 1; 1; 2; 3; 5 ] (Vec.to_list v);
  Vec.move v ~src:2 ~dst:0 ~len:4;
  check_list "move left, overlapping" [ 1; 2; 3; 5; 3; 5 ] (Vec.to_list v);
  Vec.move v ~src:6 ~dst:0 ~len:0;
  Alcotest.check_raises "move past the end" (Invalid_argument "Vec.move: range out of bounds")
    (fun () -> Vec.move v ~src:3 ~dst:4 ~len:3)

let test_truncate () =
  let v = Vec.of_list [ 0; 1; 2; 3; 4 ] in
  Vec.truncate v 5;
  check_list "noop at length" [ 0; 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.truncate v 2;
  check_list "dropped tail" [ 0; 1 ] (Vec.to_list v);
  Vec.push v 9;
  check_list "push after truncate" [ 0; 1; 9 ] (Vec.to_list v);
  Vec.truncate v 0;
  check_list "empty" [] (Vec.to_list v);
  Alcotest.check_raises "past length" (Invalid_argument "Vec.truncate") (fun () ->
      Vec.truncate v 1)

let test_pop () =
  let v = Vec.of_list [ 1; 2 ] in
  check_int "pop" 2 (Vec.pop v);
  check_int "pop" 1 (Vec.pop v);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_lower_bound () =
  let v = Vec.of_list [ 2; 4; 4; 8; 16 ] in
  let lb x = Vec.lower_bound v ~compare:(fun e -> Int.compare e x) in
  check_int "before all" 0 (lb 1);
  check_int "exact" 1 (lb 4);
  check_int "between" 3 (lb 5);
  check_int "past end" 5 (lb 100)

let test_sort_fold () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Vec.sort Int.compare v;
  check_list "sorted" [ 1; 2; 3 ] (Vec.to_list v);
  check_int "sum" 6 (Vec.fold_left ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check_bool "not exists" false (Vec.exists (fun x -> x = 9) v)

let prop_insert_matches_list =
  let gen = QCheck2.Gen.(list_size (int_range 0 100) (pair (int_bound 1000) (int_bound 100))) in
  QCheck2.Test.make ~name:"vec insert_at matches list model" ~count:300 gen
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun (x, pos) ->
          let i = pos mod (Vec.length v + 1) in
          Vec.insert_at v i x;
          let rec ins l n = if n = 0 then x :: l else List.hd l :: ins (List.tl l) (n - 1) in
          model := ins !model i)
        ops;
      Vec.to_list v = !model)

let suite =
  [
    Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "insert/remove" `Quick test_insert_remove;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "pop" `Quick test_pop;
    Alcotest.test_case "lower_bound" `Quick test_lower_bound;
    Alcotest.test_case "sort/fold/exists" `Quick test_sort_fold;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_insert_matches_list ]
