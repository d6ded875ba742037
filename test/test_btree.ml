(* Unit and property tests for the generic B+-tree. *)

open Lxu_btree

module IT = Bptree.Make (Int)
module IMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build ?(branching = 8) pairs =
  let t = IT.create ~branching () in
  List.iter (fun (k, v) -> IT.insert t k v) pairs;
  t

let test_empty () =
  let t = IT.create () in
  check_bool "is_empty" true (IT.is_empty t);
  check_int "length" 0 (IT.length t);
  check_bool "find" true (IT.find t 5 = None);
  check_bool "min" true (IT.min_binding t = None);
  check_bool "max" true (IT.max_binding t = None);
  check_int "height" 1 (IT.height t);
  IT.check_invariants t

let test_insert_find () =
  let t = build (List.init 100 (fun i -> (i * 7 mod 100, i))) in
  check_int "length" 100 (IT.length t);
  check_bool "find 0" true (IT.find t 0 <> None);
  check_bool "find 99" true (IT.find t 99 <> None);
  check_bool "find missing" true (IT.find t 100 = None);
  IT.check_invariants t

let test_replace () =
  let t = build [ (1, "a") ] in
  IT.insert t 1 "b";
  check_int "length" 1 (IT.length t);
  check_bool "value" true (IT.find t 1 = Some "b")

let test_ordered_iteration () =
  let t = build (List.init 500 (fun i -> ((i * 37) mod 500, i))) in
  let keys = List.map fst (IT.to_list t) in
  Alcotest.(check (list int)) "sorted" (List.init 500 Fun.id) keys

let test_min_max () =
  let t = build [ (5, ()); (1, ()); (9, ()); (3, ()) ] in
  check_bool "min" true (IT.min_binding t = Some (1, ()));
  check_bool "max" true (IT.max_binding t = Some (9, ()))

let test_iter_from () =
  let t = build (List.init 100 (fun i -> (i * 2, i))) in
  (* Keys are 0,2,...,198; scanning from 51 yields 52,54,... *)
  let seen = ref [] in
  IT.iter_from t 51 (fun k _ ->
      seen := k :: !seen;
      List.length !seen < 3);
  Alcotest.(check (list int)) "window" [ 52; 54; 56 ] (List.rev !seen)

let test_iter_from_past_end () =
  let t = build (List.init 10 (fun i -> (i, i))) in
  let n = ref 0 in
  IT.iter_from t 100 (fun _ _ ->
      incr n;
      true);
  check_int "nothing" 0 !n

let test_remove_simple () =
  let t = build (List.init 50 (fun i -> (i, i))) in
  check_bool "present" true (IT.remove t 25);
  check_bool "absent now" true (IT.find t 25 = None);
  check_bool "remove again" false (IT.remove t 25);
  check_int "length" 49 (IT.length t);
  IT.check_invariants t

let test_remove_all_ascending () =
  let n = 300 in
  let t = build (List.init n (fun i -> (i, i))) in
  for i = 0 to n - 1 do
    check_bool "removed" true (IT.remove t i);
    IT.check_invariants t
  done;
  check_bool "empty" true (IT.is_empty t)

let test_remove_all_descending () =
  let n = 300 in
  let t = build (List.init n (fun i -> (i, i))) in
  for i = n - 1 downto 0 do
    check_bool "removed" true (IT.remove t i);
    IT.check_invariants t
  done;
  check_bool "empty" true (IT.is_empty t)

let test_height_grows_logarithmically () =
  let t = build ~branching:8 (List.init 4000 (fun i -> (i, i))) in
  check_bool "height sane" true (IT.height t <= 6);
  let internal, leaves = IT.node_counts t in
  check_bool "has internals" true (internal > 0);
  check_bool "leaves bound" true (leaves >= 4000 / 8)

let test_small_branching_rejected () =
  Alcotest.check_raises "branching" (Invalid_argument "Bptree.create: branching < 4")
    (fun () -> ignore (IT.create ~branching:3 ()))

let test_tuple_keys () =
  (* Tuple keys (as a composite element key would use): verify
     lexicographic order through a tuple key module. *)
  let module K = struct
    type t = int * int * int

    let compare = Stdlib.compare
  end in
  let module T = Bptree.Make (K) in
  let t = T.create ~branching:4 () in
  List.iter
    (fun k -> T.insert t k ())
    [ (1, 2, 3); (0, 9, 9); (1, 0, 0); (1, 2, 2); (2, 0, 0) ];
  let keys = List.map fst (T.to_list t) in
  check_bool "lexicographic" true
    (keys = [ (0, 9, 9); (1, 0, 0); (1, 2, 2); (1, 2, 3); (2, 0, 0) ]);
  (* Prefix scan: all keys with first component 1. *)
  let seen = ref [] in
  T.iter_from t (1, min_int, min_int) (fun ((a, _, _) as k) () ->
      if a = 1 then begin
        seen := k :: !seen;
        true
      end
      else false);
  check_int "prefix count" 3 (List.length !seen);
  T.check_invariants t

(* --- bulk construction --------------------------------------------- *)

let sorted_pairs n = Array.init n (fun i -> (i * 3, i))

let test_of_sorted_sizes () =
  (* Sweep sizes around the leaf and group boundaries for several
     branchings: every tree must satisfy the full invariant check and
     reproduce the input exactly. *)
  List.iter
    (fun branching ->
      List.iter
        (fun n ->
          let pairs = sorted_pairs n in
          let t = IT.of_sorted ~branching pairs in
          IT.check_invariants t;
          check_int (Printf.sprintf "length b=%d n=%d" branching n) n (IT.length t);
          check_bool "contents" true (IT.to_list t = Array.to_list pairs);
          Array.iter
            (fun (k, v) -> check_bool "find" true (IT.find t k = Some v))
            pairs;
          check_bool "absent key" true (IT.find t (-1) = None))
        [ 0; 1; 5; 32; 33; 1000 ])
    [ 4; 7; 32 ]

let test_of_sorted_matches_incremental () =
  (* Bulk load and one-at-a-time insertion agree on every observable. *)
  let pairs = Array.init 777 (fun i -> (i * 2, i)) in
  let bulk = IT.of_sorted ~branching:8 pairs in
  let incr = build ~branching:8 (Array.to_list pairs) in
  check_bool "same contents" true (IT.to_list bulk = IT.to_list incr);
  check_bool "same min" true (IT.min_binding bulk = IT.min_binding incr);
  check_bool "same max" true (IT.max_binding bulk = IT.max_binding incr)

let test_of_sorted_rejects_unsorted () =
  Alcotest.check_raises "descending"
    (Invalid_argument "Bptree.of_sorted: keys not strictly increasing")
    (fun () -> ignore (IT.of_sorted [| (2, ()); (1, ()) |]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Bptree.of_sorted: keys not strictly increasing")
    (fun () -> ignore (IT.of_sorted [| (1, ()); (1, ()) |]))

let test_load_sorted () =
  let t = IT.create ~branching:4 () in
  IT.load_sorted t (sorted_pairs 100);
  IT.check_invariants t;
  check_int "loaded" 100 (IT.length t);
  Alcotest.check_raises "non-empty target"
    (Invalid_argument "Bptree.load_sorted: tree not empty")
    (fun () -> IT.load_sorted t (sorted_pairs 3))

let test_insert_sorted_batch_basic () =
  (* Interleave: evens pre-existing, odds batched in. *)
  let t = build ~branching:4 (List.init 50 (fun i -> (i * 2, -i))) in
  IT.insert_sorted_batch t (Array.init 50 (fun i -> ((i * 2) + 1, i)));
  IT.check_invariants t;
  check_int "merged length" 100 (IT.length t);
  check_bool "sorted" true (List.map fst (IT.to_list t) = List.init 100 Fun.id)

let test_insert_sorted_batch_replaces () =
  let t = build ~branching:4 [ (1, "old"); (5, "keep"); (9, "old") ] in
  IT.insert_sorted_batch t [| (1, "new"); (7, "add"); (9, "new") |];
  IT.check_invariants t;
  check_int "no duplicates" 4 (IT.length t);
  check_bool "replaced 1" true (IT.find t 1 = Some "new");
  check_bool "kept 5" true (IT.find t 5 = Some "keep");
  check_bool "replaced 9" true (IT.find t 9 = Some "new")

let test_insert_sorted_batch_edges () =
  let t = IT.create ~branching:4 () in
  IT.insert_sorted_batch t [||];
  check_bool "empty batch, empty tree" true (IT.is_empty t);
  IT.insert_sorted_batch t [| (42, "x") |];
  IT.check_invariants t;
  check_bool "singleton into empty" true (IT.to_list t = [ (42, "x") ]);
  IT.insert_sorted_batch t [||];
  check_int "empty batch is a no-op" 1 (IT.length t);
  Alcotest.check_raises "duplicate keys within the batch"
    (Invalid_argument "Bptree.insert_sorted_batch: keys not strictly increasing")
    (fun () -> IT.insert_sorted_batch t [| (1, "a"); (1, "b") |])

(* --- properties ---------------------------------------------------- *)

type op = Insert of int * int | Remove of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> Insert (k mod 200, v)) (int_bound 1000) (int_bound 1000);
        map (fun k -> Remove (k mod 200)) (int_bound 1000);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 400) op_gen)

let apply_ops branching ops =
  let t = IT.create ~branching () in
  let reference = ref IMap.empty in
  List.iter
    (fun op ->
      match op with
      | Insert (k, v) ->
        IT.insert t k v;
        reference := IMap.add k v !reference
      | Remove k ->
        let removed = IT.remove t k in
        let was_there = IMap.mem k !reference in
        if removed <> was_there then failwith "remove result disagrees with Map";
        reference := IMap.remove k !reference)
    ops;
  (t, !reference)

let prop_matches_map branching =
  QCheck2.Test.make
    ~name:(Printf.sprintf "btree = Map under random ops (branching %d)" branching)
    ~count:300 ops_gen (fun ops ->
      let t, reference = apply_ops branching ops in
      IT.check_invariants t;
      IT.to_list t = IMap.bindings reference)

let prop_iter_from_matches_map =
  QCheck2.Test.make ~name:"iter_from = Map slice" ~count:300
    QCheck2.Gen.(pair ops_gen (int_bound 220))
    (fun (ops, lo) ->
      let t, reference = apply_ops 6 ops in
      let scanned = ref [] in
      IT.iter_from t lo (fun k v ->
          scanned := (k, v) :: !scanned;
          true);
      let expected =
        IMap.bindings (IMap.filter (fun k _ -> k >= lo) reference)
      in
      List.rev !scanned = expected)

(* Both sides of the small-batch/rebuild crossover against Map. *)
let prop_insert_sorted_batch_matches_map =
  let gen =
    QCheck2.Gen.(
      triple ops_gen
        (list_size (int_range 0 300) (pair (int_bound 400) (int_bound 1000)))
        (oneofl [ 4; 7; 32 ]))
  in
  QCheck2.Test.make ~name:"insert_sorted_batch = Map adds" ~count:300 gen
    (fun (ops, batch, branching) ->
      let t, reference = apply_ops branching ops in
      (* Dedup and sort the batch the way callers must. *)
      let batch =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) batch |> Array.of_list
      in
      IT.insert_sorted_batch t batch;
      IT.check_invariants t;
      let expected =
        Array.fold_left (fun m (k, v) -> IMap.add k v m) reference batch
      in
      IT.to_list t = IMap.bindings expected)

let prop_of_sorted_matches_map =
  QCheck2.Test.make ~name:"of_sorted = Map of_list" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 0 600) (pair int (int_bound 1000))) (oneofl [ 4; 7; 32 ]))
    (fun (pairs, branching) ->
      let pairs =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) pairs |> Array.of_list
      in
      let t = IT.of_sorted ~branching pairs in
      IT.check_invariants t;
      IT.to_list t = Array.to_list pairs)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matches_map 4;
      prop_matches_map 7;
      prop_matches_map 32;
      prop_iter_from_matches_map;
      prop_insert_sorted_batch_matches_map;
      prop_of_sorted_matches_map;
    ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "ordered iteration" `Quick test_ordered_iteration;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "iter_from window" `Quick test_iter_from;
    Alcotest.test_case "iter_from past end" `Quick test_iter_from_past_end;
    Alcotest.test_case "remove simple" `Quick test_remove_simple;
    Alcotest.test_case "remove all ascending" `Quick test_remove_all_ascending;
    Alcotest.test_case "remove all descending" `Quick test_remove_all_descending;
    Alcotest.test_case "height logarithmic" `Quick test_height_grows_logarithmically;
    Alcotest.test_case "branching < 4 rejected" `Quick test_small_branching_rejected;
    Alcotest.test_case "tuple keys + prefix scan" `Quick test_tuple_keys;
    Alcotest.test_case "of_sorted size sweep" `Quick test_of_sorted_sizes;
    Alcotest.test_case "of_sorted = incremental" `Quick test_of_sorted_matches_incremental;
    Alcotest.test_case "of_sorted rejects unsorted" `Quick test_of_sorted_rejects_unsorted;
    Alcotest.test_case "load_sorted" `Quick test_load_sorted;
    Alcotest.test_case "insert_sorted_batch interleave" `Quick test_insert_sorted_batch_basic;
    Alcotest.test_case "insert_sorted_batch replaces" `Quick test_insert_sorted_batch_replaces;
    Alcotest.test_case "insert_sorted_batch edges" `Quick test_insert_sorted_batch_edges;
  ]
  @ props
