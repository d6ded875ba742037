(* Tests for the tag-list: sorted insertion, LS-style deferred sorting,
   count bookkeeping on deletion. *)

open Lxu_seglog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let entry sid path count = { Tag_list.sid; path = Array.of_list path; count }

(* A fixed gp assignment for sorting tests. *)
let gp_of = function 1 -> 100 | 2 -> 50 | 3 -> 75 | 4 -> 10 | _ -> 0

let sids t tid = Array.to_list (Array.map (fun e -> e.Tag_list.sid) (Tag_list.entries t ~tid))

let test_add_sorted () =
  let t = Tag_list.create () in
  Tag_list.add_sorted t ~tid:7 (entry 1 [ 0; 1 ] 3) ~gp_of;
  Tag_list.add_sorted t ~tid:7 (entry 2 [ 0; 2 ] 1) ~gp_of;
  Tag_list.add_sorted t ~tid:7 (entry 3 [ 0; 2; 3 ] 2) ~gp_of;
  Alcotest.(check (list int)) "gp order" [ 2; 3; 1 ] (sids t 7);
  check_bool "not dirty" false (Tag_list.is_dirty t)

let test_append_and_sort () =
  let t = Tag_list.create () in
  Tag_list.append t ~tid:7 (entry 1 [ 0; 1 ] 1);
  Tag_list.append t ~tid:7 (entry 4 [ 0; 4 ] 1);
  Tag_list.append t ~tid:7 (entry 2 [ 0; 2 ] 1);
  check_bool "dirty" true (Tag_list.is_dirty t);
  check_bool "entries refuses dirty reads" true
    (match Tag_list.entries t ~tid:7 with
    | exception Tag_list.Dirty_tag_list 7 -> true
    | _ -> false);
  (* Dirtiness is per tag: a clean tag stays readable while tag 7 is
     dirty, and a soiled one raises with its own tid. *)
  Tag_list.add_sorted t ~tid:9 (entry 1 [ 0; 1 ] 1) ~gp_of;
  check_int "clean tag readable beside a dirty one" 1
    (Array.length (Tag_list.entries t ~tid:9));
  Tag_list.append t ~tid:9 (entry 2 [ 0; 2 ] 1);
  check_bool "exception names the requested tag" true
    (match Tag_list.entries t ~tid:9 with
    | exception Tag_list.Dirty_tag_list 9 -> true
    | _ -> false);
  Tag_list.sort_all t ~gp_of;
  Alcotest.(check (list int)) "sorted" [ 4; 2; 1 ] (sids t 7);
  check_bool "clean" false (Tag_list.is_dirty t)

let test_mark_dirty () =
  let t = Tag_list.create () in
  Tag_list.add_sorted t ~tid:1 (entry 1 [ 0; 1 ] 1) ~gp_of;
  Tag_list.mark_dirty t;
  check_bool "dirty again" true (Tag_list.is_dirty t);
  Tag_list.sort_all t ~gp_of;
  check_int "still there" 1 (List.length (sids t 1))

let test_decrement () =
  let t = Tag_list.create () in
  Tag_list.add_sorted t ~tid:1 (entry 1 [ 0; 1 ] 3) ~gp_of;
  Tag_list.decrement t ~tid:1 ~sid:1 ~by:2;
  check_int "count lowered" 1 (Tag_list.entries t ~tid:1).(0).Tag_list.count;
  Tag_list.decrement t ~tid:1 ~sid:1 ~by:1;
  check_int "entry dropped at zero" 0 (Array.length (Tag_list.entries t ~tid:1));
  (* Unknown pairs are ignored. *)
  Tag_list.decrement t ~tid:1 ~sid:99 ~by:1;
  Tag_list.decrement t ~tid:42 ~sid:1 ~by:1

let test_remove_segment () =
  let t = Tag_list.create () in
  Tag_list.add_sorted t ~tid:1 (entry 1 [ 0; 1 ] 1) ~gp_of;
  Tag_list.add_sorted t ~tid:2 (entry 1 [ 0; 1 ] 4) ~gp_of;
  Tag_list.add_sorted t ~tid:2 (entry 2 [ 0; 2 ] 1) ~gp_of;
  Tag_list.remove_segment t ~sid:1;
  check_int "tid1 empty" 0 (Array.length (Tag_list.entries t ~tid:1));
  Alcotest.(check (list int)) "tid2 keeps sid2" [ 2 ] (sids t 2)

(* O(1) cardinalities must agree with summing the entries — across
   sorted adds, appends (including while dirty, when [entries] itself
   refuses to answer), decrements and segment removals. *)
let test_cardinalities () =
  let t = Tag_list.create () in
  check_int "empty tag segments" 0 (Tag_list.tag_segments t ~tid:1);
  check_int "empty tag elements" 0 (Tag_list.tag_elements t ~tid:1);
  check_int "empty max" 0 (Tag_list.max_segments t);
  Tag_list.add_sorted t ~tid:1 (entry 1 [ 0; 1 ] 3) ~gp_of;
  Tag_list.add_sorted t ~tid:1 (entry 2 [ 0; 2 ] 2) ~gp_of;
  Tag_list.add_sorted t ~tid:2 (entry 1 [ 0; 1 ] 5) ~gp_of;
  check_int "segments" 2 (Tag_list.tag_segments t ~tid:1);
  check_int "elements" 5 (Tag_list.tag_elements t ~tid:1);
  check_int "max over tags" 2 (Tag_list.max_segments t);
  (* Pending appends count while the list is dirty. *)
  Tag_list.append t ~tid:1 (entry 3 [ 0; 3 ] 4);
  check_bool "dirty" true (Tag_list.is_dirty t);
  check_int "segments incl. pending" 3 (Tag_list.tag_segments t ~tid:1);
  check_int "elements incl. pending" 9 (Tag_list.tag_elements t ~tid:1);
  Tag_list.sort_all t ~gp_of;
  check_int "segments after sort" 3 (Tag_list.tag_segments t ~tid:1);
  check_int "elements after sort" 9 (Tag_list.tag_elements t ~tid:1);
  Tag_list.decrement t ~tid:1 ~sid:2 ~by:2;
  check_int "decrement drops the entry" 2 (Tag_list.tag_segments t ~tid:1);
  check_int "elements after decrement" 7 (Tag_list.tag_elements t ~tid:1);
  Tag_list.remove_segment t ~sid:1;
  check_int "segments after removal" 1 (Tag_list.tag_segments t ~tid:1);
  check_int "elements after removal" 4 (Tag_list.tag_elements t ~tid:1);
  check_int "tid2 emptied" 0 (Tag_list.tag_elements t ~tid:2);
  check_int "max after removal" 1 (Tag_list.max_segments t)

let test_tids_and_sizes () =
  let t = Tag_list.create () in
  Tag_list.add_sorted t ~tid:5 (entry 1 [ 0; 1 ] 1) ~gp_of;
  Tag_list.add_sorted t ~tid:3 (entry 1 [ 0; 1 ] 1) ~gp_of;
  Alcotest.(check (list int)) "tids sorted" [ 3; 5 ] (Tag_list.tids t);
  check_bool "size" true (Tag_list.size_bytes t > 0);
  check_bool "ops counted" true (Tag_list.path_ops t >= 2)

(* Differential: the run-merge sort path against an oracle kept here —
   each tag's live entries in arrival order, stably sorted by gp at the
   end — on an op schedule with gp collisions, mid-stream sorts,
   decrements and segment removals.  gps never move in this schedule,
   and every entry of the main run arrived before every pending one,
   so the merge path must agree with the oracle entry-for-entry —
   including the order of equal-gp entries, which is where a naive
   unstable sort would diverge. *)
let test_merge_matches_resort () =
  (* Plenty of collisions: five distinct gps over ~40 sids. *)
  let gp_of sid = sid mod 5 * 10 in
  let ops rng =
    List.init 400 (fun i ->
        let tid = 1 + Lxu_workload.Rng.int rng 6 in
        let sid = 1 + Lxu_workload.Rng.int rng 40 in
        match Lxu_workload.Rng.int rng 10 with
        | 0 -> `Sort
        | 1 -> `Decrement (tid, sid)
        | 2 when i > 50 -> `Remove_segment sid
        | 3 | 4 -> `Add_sorted (tid, entry sid [ 0; sid ] (1 + (i mod 3)))
        | _ -> `Append (tid, entry sid [ 0; sid ] (1 + (i mod 3))))
  in
  let merged ops =
    let t = Tag_list.create () in
    List.iter
      (function
        | `Sort -> Tag_list.sort_all t ~gp_of
        | `Decrement (tid, sid) -> Tag_list.decrement t ~tid ~sid ~by:1
        | `Remove_segment sid -> Tag_list.remove_segment t ~sid
        | `Add_sorted (tid, e) -> Tag_list.add_sorted t ~tid e ~gp_of
        | `Append (tid, e) -> Tag_list.append t ~tid e)
      ops;
    Tag_list.sort_all t ~gp_of;
    t
  in
  (* The oracle: tid -> live (sid, path, count) triples in arrival
     order.  Sorts are no-ops until the end. *)
  let oracle ops =
    let lists = Hashtbl.create 8 in
    let update tid f =
      match Hashtbl.find_opt lists tid with
      | Some l -> Hashtbl.replace lists tid (f l)
      | None -> ()
    in
    let add tid (e : Tag_list.entry) =
      let l = Option.value (Hashtbl.find_opt lists tid) ~default:[] in
      let triple = (e.Tag_list.sid, Array.to_list e.Tag_list.path, e.Tag_list.count) in
      Hashtbl.replace lists tid (l @ [ triple ])
    in
    List.iter
      (function
        | `Sort -> ()
        | `Decrement (tid, sid) ->
          update tid (fun l ->
              List.filter_map
                (fun (s, p, c) ->
                  if s <> sid then Some (s, p, c) else if c > 1 then Some (s, p, c - 1) else None)
                l)
        | `Remove_segment sid ->
          List.iter
            (fun tid -> update tid (List.filter (fun (s, _, _) -> s <> sid)))
            (List.of_seq (Hashtbl.to_seq_keys lists))
        | `Add_sorted (tid, e) | `Append (tid, e) -> add tid e)
      ops;
    let by_gp (s1, _, _) (s2, _, _) = Int.compare (gp_of s1) (gp_of s2) in
    List.of_seq (Hashtbl.to_seq lists)
    |> List.map (fun (tid, l) -> (tid, List.stable_sort by_gp l))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun seed ->
      (* The same schedule twice: entries must be fresh per run
         (counts are mutable), so regenerate from the same seed. *)
      let merged = merged (ops (Lxu_workload.Rng.create seed)) in
      let expected = oracle (ops (Lxu_workload.Rng.create seed)) in
      Alcotest.(check (list int)) "same tags" (Tag_list.tids merged) (List.map fst expected);
      List.iter
        (fun (tid, want) ->
          let dump t =
            Tag_list.entries t ~tid |> Array.to_list
            |> List.map (fun e -> (e.Tag_list.sid, Array.to_list e.Tag_list.path, e.Tag_list.count))
          in
          check_bool
            (Printf.sprintf "seed %d tid %d identical" seed tid)
            true
            (dump merged = want))
        expected)
    [ 1; 2; 3; 42 ]

let suite =
  [
    Alcotest.test_case "add_sorted keeps gp order" `Quick test_add_sorted;
    Alcotest.test_case "append then sort_all" `Quick test_append_and_sort;
    Alcotest.test_case "mark_dirty" `Quick test_mark_dirty;
    Alcotest.test_case "decrement" `Quick test_decrement;
    Alcotest.test_case "remove_segment" `Quick test_remove_segment;
    Alcotest.test_case "O(1) cardinalities" `Quick test_cardinalities;
    Alcotest.test_case "tids and sizes" `Quick test_tids_and_sizes;
    Alcotest.test_case "merge sort path = full re-sort" `Quick test_merge_matches_resort;
  ]
