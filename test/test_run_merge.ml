(* [Run_merge]: the run count and the merge, on the edge shapes by
   hand and on random query-shaped rows against [List.stable_sort]. *)

open Lxu_util

let sorted_rows rows =
  let p = Array.of_list (List.map fst rows) and s = Array.of_list (List.map snd rows) in
  let runs = Run_merge.runs p s in
  Run_merge.sort p s;
  (runs, Array.to_list (Array.map2 (fun a b -> (a, b)) p s))

let test_shapes () =
  let check name rows ~runs =
    let got_runs, got = sorted_rows rows in
    Alcotest.(check int) (name ^ ": runs") runs got_runs;
    Alcotest.(check (list (pair int int))) name (List.stable_sort compare rows) got
  in
  check "empty" [] ~runs:0;
  check "one row" [ (3, 1) ] ~runs:1;
  check "sorted" [ (1, 5); (2, 0); (2, 0); (2, 3); (7, 1) ] ~runs:1;
  check "strictly reversed" (List.init 9 (fun i -> (9 - i, i))) ~runs:9;
  check "equal primaries" [ (4, 3); (4, 1); (4, 2); (4, 2); (4, 0) ] ~runs:3;
  check "two runs" [ (1, 0); (5, 0); (9, 0); (2, 0); (6, 0) ] ~runs:2;
  Alcotest.check_raises "unequal columns"
    (Invalid_argument "Run_merge.sort: columns of unequal length") (fun () ->
      Run_merge.sort [| 1 |] [||])

let suite =
  [
    Alcotest.test_case "runs and merge on edge shapes" `Quick test_shapes;
    QCheck_alcotest.to_alcotest (Lxu_props.Translate_props.run_merge ~count:500);
  ]
