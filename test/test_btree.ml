(* Unit and property tests for the page-backed B+-tree, against
   [Map].  Pages are 512 bytes and the buffer pool holds a few of them,
   so small trees are already multi-level and every scan and update
   also runs through eviction and dirty write-back. *)

module Page_store = Lxu_storage.Page_store
module T = Lxu_btree.Paged_bptree
module IMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let page_size = 512

let tree ?(page_size = page_size) ?(kw = 1) ?(vw = 1) () =
  let ps =
    Page_store.create ~device:(Lxu_storage.Sim_file.in_memory ()) ~page_size
      ~pool_bytes:(8 * page_size) ()
  in
  T.create ps ~kw ~vw

(* Integer keys go in as [kw] words: the key itself, then zeros. *)
let key ~kw k = Array.init kw (fun i -> if i = 0 then k else 0)

let insert t k v = T.insert t (key ~kw:1 k) [| v |]

let find t k =
  let value = [| 0 |] in
  if T.find t (key ~kw:1 k) ~value then Some value.(0) else None

let build pairs =
  let t = tree () in
  List.iter (fun (k, v) -> insert t k v) pairs;
  t

(* Bindings in key order, read off the first key word. *)
let to_list t =
  let acc = ref [] in
  T.iter t (fun k v ->
      acc := (k.(0), v.(0)) :: !acc;
      true);
  List.rev !acc

let keys t = List.map fst (to_list t)

let load t pairs =
  let pairs = Array.of_list pairs in
  T.load_sorted t ~n:(Array.length pairs) ~get:(fun i kb vb ->
      let k, v = pairs.(i) in
      Array.blit (key ~kw:(Array.length kb) k) 0 kb 0 (Array.length kb);
      vb.(0) <- v)

let batch t pairs =
  let pairs = Array.of_list pairs in
  T.insert_sorted_batch t ~n:(Array.length pairs) ~get:(fun i kb vb ->
      let k, v = pairs.(i) in
      kb.(0) <- k;
      vb.(0) <- v)

let test_empty () =
  let t = tree () in
  check_int "length" 0 (T.length t);
  check_bool "find" true (find t 5 = None);
  check_bool "iter" true (to_list t = []);
  check_int "height" 0 (T.height t);
  T.check_invariants t

let test_insert_find () =
  let t = build (List.init 100 (fun i -> (i * 7 mod 100, i))) in
  check_int "length" 100 (T.length t);
  check_bool "find 0" true (find t 0 <> None);
  check_bool "find 99" true (find t 99 <> None);
  check_bool "find missing" true (find t 100 = None);
  T.check_invariants t

let test_replace () =
  let t = build [ (1, 10) ] in
  insert t 1 20;
  check_int "length" 1 (T.length t);
  check_bool "value" true (find t 1 = Some 20)

let test_ordered_iteration () =
  let t = build (List.init 500 (fun i -> ((i * 37) mod 500, i))) in
  Alcotest.(check (list int)) "sorted" (List.init 500 Fun.id) (keys t)

let scan_from t lo ~limit =
  let seen = ref [] in
  T.iter_from t (key ~kw:1 lo) (fun k _ ->
      seen := k.(0) :: !seen;
      List.length !seen < limit);
  List.rev !seen

let test_iter_from () =
  (* Keys are 0,2,...,198; scanning from 51 yields 52,54,... *)
  let t = build (List.init 100 (fun i -> (i * 2, i))) in
  Alcotest.(check (list int)) "window" [ 52; 54; 56 ] (scan_from t 51 ~limit:3)

let test_iter_from_past_end () =
  let t = build (List.init 10 (fun i -> (i, i))) in
  check_int "nothing" 0 (List.length (scan_from t 100 ~limit:max_int))

let test_remove_simple () =
  let t = build (List.init 50 (fun i -> (i, i))) in
  check_bool "present" true (T.remove t (key ~kw:1 25));
  check_bool "absent now" true (find t 25 = None);
  check_bool "remove again" false (T.remove t (key ~kw:1 25));
  check_int "length" 49 (T.length t);
  T.check_invariants t

let remove_all order =
  let n = 300 in
  let t = build (List.init n (fun i -> (i, i))) in
  List.iter
    (fun i ->
      check_bool "removed" true (T.remove t (key ~kw:1 i));
      T.check_invariants t)
    (order (List.init n Fun.id));
  check_int "empty" 0 (T.length t);
  check_int "root collapsed" 0 (T.height t)

let test_height_grows_logarithmically () =
  let n = 4000 in
  let t = build (List.init n (fun i -> (i, i))) in
  check_bool "height sane" true (T.height t <= 6);
  let leaves, branches = T.node_counts t in
  check_bool "has branches" true (branches > 0);
  (* A leaf holds at most a page of two-word entries. *)
  check_bool "leaves bound" true (leaves >= n * 2 * 8 / page_size)

let test_page_too_small_rejected () =
  match tree ~kw:40 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a 40-word key fits a 512-byte page twice"

let test_tuple_keys () =
  (* Three-word keys compare lexicographically; a scan from
     (1, min_int, min_int) is a prefix scan on the first word. *)
  let t = tree ~kw:3 ~vw:0 () in
  List.iter
    (fun (a, b, c) -> T.insert t [| a; b; c |] [||])
    [ (1, 2, 3); (0, 9, 9); (1, 0, 0); (1, 2, 2); (2, 0, 0) ];
  let all = ref [] in
  T.iter t (fun k _ ->
      all := (k.(0), k.(1), k.(2)) :: !all;
      true);
  check_bool "lexicographic" true
    (List.rev !all = [ (0, 9, 9); (1, 0, 0); (1, 2, 2); (1, 2, 3); (2, 0, 0) ]);
  let prefix = ref 0 in
  T.iter_from t [| 1; min_int; min_int |] (fun k _ ->
      if k.(0) = 1 then begin
        incr prefix;
        true
      end
      else false);
  check_int "prefix count" 3 !prefix;
  T.check_invariants t

(* --- bulk construction --------------------------------------------- *)

let sorted_pairs n = List.init n (fun i -> (i * 3, i))

let test_load_sorted_sizes () =
  (* Sizes around the leaf and branch boundaries, for several key
     widths: every tree must satisfy the full invariant check and
     reproduce the input exactly. *)
  List.iter
    (fun kw ->
      List.iter
        (fun n ->
          let pairs = sorted_pairs n in
          let t = tree ~kw () in
          load t pairs;
          T.check_invariants t;
          check_int (Printf.sprintf "length kw=%d n=%d" kw n) n (T.length t);
          check_bool "contents" true (to_list t = pairs);
          let value = [| 0 |] in
          List.iter
            (fun (k, v) ->
              check_bool "find" true (T.find t (key ~kw k) ~value && value.(0) = v))
            pairs;
          check_bool "absent key" false (T.mem t (key ~kw (-1))))
        [ 0; 1; 5; 31; 32; 33; 1000 ])
    [ 1; 2; 3 ]

let test_load_sorted_matches_incremental () =
  let pairs = List.init 777 (fun i -> (i * 2, i)) in
  let bulk = tree () in
  load bulk pairs;
  let incr = build pairs in
  check_bool "same contents" true (to_list bulk = to_list incr);
  check_bool "bulk packs at least as tight" true
    (fst (T.node_counts bulk) <= fst (T.node_counts incr))

let test_load_sorted_rejects_unsorted () =
  let rejects pairs =
    match load (tree ()) pairs with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  check_bool "descending" true (rejects [ (2, 0); (1, 0) ]);
  check_bool "duplicate" true (rejects [ (1, 0); (1, 0) ])

let test_load_sorted () =
  (* Loading replaces the whole contents, also of a non-empty tree. *)
  let t = build [ (1, 1); (500, 5) ] in
  load t (sorted_pairs 100);
  T.check_invariants t;
  check_int "loaded" 100 (T.length t);
  check_bool "old keys gone" true (find t 500 = None && find t 1 = None);
  check_bool "contents" true (to_list t = sorted_pairs 100)

let test_insert_sorted_batch_interleave () =
  (* Evens pre-existing, odds batched in: once as a batch as large as
     the tree (merge-rebuild), once as a small batch into a large tree
     (per-key inserts). *)
  let t = build (List.init 50 (fun i -> (i * 2, -i))) in
  batch t (List.init 50 (fun i -> ((i * 2) + 1, i)));
  T.check_invariants t;
  check_int "merged length" 100 (T.length t);
  check_bool "sorted" true (keys t = List.init 100 Fun.id);
  batch t [ (1001, 0); (1003, 0) ];
  T.check_invariants t;
  check_bool "small batch appended" true (keys t = List.init 100 Fun.id @ [ 1001; 1003 ])

let test_insert_sorted_batch_replaces () =
  let t = build [ (1, 10); (5, 50); (9, 90) ] in
  batch t [ (1, 11); (7, 70); (9, 99) ];
  T.check_invariants t;
  check_int "no duplicates" 4 (T.length t);
  check_bool "replaced 1" true (find t 1 = Some 11);
  check_bool "kept 5" true (find t 5 = Some 50);
  check_bool "replaced 9" true (find t 9 = Some 99)

let test_insert_sorted_batch_edges () =
  let t = tree () in
  batch t [];
  check_int "empty batch, empty tree" 0 (T.length t);
  batch t [ (42, 7) ];
  T.check_invariants t;
  check_bool "singleton into empty" true (to_list t = [ (42, 7) ]);
  batch t [];
  check_int "empty batch is a no-op" 1 (T.length t)

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

(* Applies [ops] to a fresh tree with [kw]-word keys and to a [Map];
   [remove]'s result must agree with [Map.mem] at every step. *)
let apply_ops ?page_size ?(kw = 1) ?(init = []) ops =
  let t = tree ?page_size ~kw () in
  load t init;
  let reference =
    List.fold_left (fun m (k, v) -> IMap.add k v m) IMap.empty init
  in
  let reference =
    List.fold_left
      (fun m op ->
        match op with
        | Insert (k, v) ->
          T.insert t (key ~kw k) [| v |];
          IMap.add k v m
        | Remove k ->
          if T.remove t (key ~kw k) <> IMap.mem k m then
            failwith "remove result disagrees with Map";
          IMap.remove k m)
      reference ops
  in
  (t, reference)

(* The page size sets the branching factor: 128-byte pages hold 4-6
   entries a node (deep trees, a split or merge every few ops), 512-byte
   pages about 30. *)
let prop_matches_map ~page_size kw =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "btree = Map under random ops (branching of %d-byte pages, kw %d)"
         page_size kw)
    ~count:200 ops_gen (fun ops ->
      let t, reference = apply_ops ~page_size ~kw ops in
      T.check_invariants t;
      to_list t = IMap.bindings reference)

let prop_iter_from_matches_map =
  QCheck2.Test.make ~name:"iter_from = Map slice" ~count:200
    QCheck2.Gen.(pair ops_gen (int_bound 220))
    (fun (ops, lo) ->
      let t, reference = apply_ops ops in
      let scanned = ref [] in
      T.iter_from t (key ~kw:1 lo) (fun k v ->
          scanned := (k.(0), v.(0)) :: !scanned;
          true);
      List.rev !scanned = IMap.bindings (IMap.filter (fun k _ -> k >= lo) reference))

(* A batch into a tree that may be much larger than it: the SB index
   sends one small batch per insert into a large tree (per-key
   inserts), while bulk ingestion sends batches as large as the tree
   (merge-rebuild).  The generator covers both sides of the
   crossover. *)
let prop_insert_sorted_batch_matches_map =
  let gen =
    QCheck2.Gen.(
      triple ops_gen (int_bound 1500)
        (oneof
           [
             list_size (int_range 0 20) (pair (int_bound 3000) (int_bound 1000));
             list_size (int_range 0 600) (pair (int_bound 3000) (int_bound 1000));
           ]))
  in
  QCheck2.Test.make ~name:"insert_sorted_batch = Map adds" ~count:200 gen
    (fun (ops, preload, batch_pairs) ->
      (* Odd keys past the ops' range make the tree large without
         colliding with them. *)
      let init = List.init preload (fun i -> ((2 * i) + 201, i)) in
      let t, reference = apply_ops ~init ops in
      (* Dedup and sort the batch the way callers must. *)
      let batch_pairs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) batch_pairs in
      batch t batch_pairs;
      T.check_invariants t;
      let expected = List.fold_left (fun m (k, v) -> IMap.add k v m) reference batch_pairs in
      to_list t = IMap.bindings expected)

let prop_load_sorted_matches_map =
  QCheck2.Test.make ~name:"load_sorted = Map of_list" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 0 600) (pair int (int_bound 1000))) (int_range 1 3))
    (fun (pairs, kw) ->
      let pairs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) pairs in
      let t = tree ~kw () in
      load t pairs;
      T.check_invariants t;
      to_list t = IMap.bindings (IMap.of_seq (List.to_seq pairs)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matches_map ~page_size:128 1;
      prop_matches_map ~page_size:128 2;
      prop_matches_map ~page_size 1;
      prop_matches_map ~page_size 2;
      prop_iter_from_matches_map;
      prop_insert_sorted_batch_matches_map;
      prop_load_sorted_matches_map;
    ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "ordered iteration" `Quick test_ordered_iteration;
    Alcotest.test_case "iter_from window" `Quick test_iter_from;
    Alcotest.test_case "iter_from past end" `Quick test_iter_from_past_end;
    Alcotest.test_case "remove simple" `Quick test_remove_simple;
    Alcotest.test_case "remove all ascending" `Quick (fun () -> remove_all Fun.id);
    Alcotest.test_case "remove all descending" `Quick (fun () -> remove_all List.rev);
    Alcotest.test_case "height logarithmic" `Quick test_height_grows_logarithmically;
    Alcotest.test_case "page too small rejected" `Quick test_page_too_small_rejected;
    Alcotest.test_case "tuple keys + prefix scan" `Quick test_tuple_keys;
    Alcotest.test_case "load_sorted size sweep" `Quick test_load_sorted_sizes;
    Alcotest.test_case "load_sorted = incremental" `Quick test_load_sorted_matches_incremental;
    Alcotest.test_case "load_sorted rejects unsorted" `Quick test_load_sorted_rejects_unsorted;
    Alcotest.test_case "load_sorted" `Quick test_load_sorted;
    Alcotest.test_case "insert_sorted_batch interleave" `Quick test_insert_sorted_batch_interleave;
    Alcotest.test_case "insert_sorted_batch replaces" `Quick test_insert_sorted_batch_replaces;
    Alcotest.test_case "insert_sorted_batch edges" `Quick test_insert_sorted_batch_edges;
  ]
  @ props
