(* Direct tests of the ER-node coordinate machinery: tombstones,
   virtual/physical conversion, splice containers and global extents.
   (The update-log suite exercises these end-to-end; here the edge
   cases get pinned down in isolation.) *)

open Lxu_seglog
open Lxu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Elements are [(start, stop, level, tid)] in document order.  Each
   element's synopsis slot is stood in for by its level: the columns
   store whatever slots they are given. *)
let mk ?(sid = 1) ?(parent_path = [||]) ?(lp = 0) text elems =
  let field f = Array.of_list (List.map f elems) in
  Er_node.make ~sid ~slot:sid ~gen:0 ~parent_path ~lp ~text
    ~columns:
      (Er_node.columns_of
         ~tids:(field (fun (_, _, _, tid) -> tid))
         ~starts:(field (fun (start, _, _, _) -> start))
         ~stops:(field (fun (_, stop, _, _) -> stop))
         ~pids:(field (fun (_, _, level, _) -> level)))

let test_make_root () =
  let r = Er_node.make_root () in
  check_bool "is_root" true (Er_node.is_root r);
  check_int "gp slot" 0 r.Er_node.slot;
  check_int "len" 0 r.Er_node.len;
  check_int "own_len" 0 (Er_node.own_len r);
  check_bool "path" true (r.Er_node.path = [| 0 |])

let test_tombstone_accounting () =
  let n = mk "0123456789" [] in
  Er_node.add_tombstone n 2 4;
  check_int "own_len" 8 (Er_node.own_len n);
  check_int "before 1" 0 (Er_node.tombstoned_before n 1);
  check_int "before 3 (partial)" 1 (Er_node.tombstoned_before n 3);
  check_int "before 4" 2 (Er_node.tombstoned_before n 4);
  check_int "before 9" 2 (Er_node.tombstoned_before n 9)

let test_tombstone_merge () =
  let n = mk "0123456789" [] in
  Er_node.add_tombstone n 2 4;
  Er_node.add_tombstone n 6 8;
  check_int "two tombstones" 2 (Vec.length n.Er_node.tombstones);
  (* Bridging range merges all three into one. *)
  Er_node.add_tombstone n 4 6;
  check_int "merged" 1 (Vec.length n.Er_node.tombstones);
  check_bool "extent" true (Vec.get n.Er_node.tombstones 0 = (2, 8));
  check_int "own_len" 4 (Er_node.own_len n)

let test_tombstone_adjacent_merge () =
  let n = mk "0123456789" [] in
  Er_node.add_tombstone n 2 4;
  Er_node.add_tombstone n 4 6;
  check_int "touching ranges merge" 1 (Vec.length n.Er_node.tombstones)

let test_tombstone_invalid () =
  let n = mk "0123" [] in
  Alcotest.check_raises "empty range" (Invalid_argument "Er_node.add_tombstone: bad range")
    (fun () -> Er_node.add_tombstone n 2 2);
  Alcotest.check_raises "past end" (Invalid_argument "Er_node.add_tombstone: bad range")
    (fun () -> Er_node.add_tombstone n 2 9)

let test_virt_conversion () =
  let n = mk "0123456789" [] in
  Er_node.add_tombstone n 2 6;
  (* Physical text is "016789": phys 2 maps to virtual 2 (before the
     gap) or 6 (after). *)
  check_int "after-gap bias" 6 (Er_node.virt_of_own_phys n 2);
  check_int "before-gap bias" 2 (Er_node.virt_of_own_phys_before n 2);
  check_int "middle live" 7 (Er_node.virt_of_own_phys n 3);
  check_int "identity before gap" 1 (Er_node.virt_of_own_phys n 1)

let test_virt_conversion_two_gaps () =
  let n = mk "0123456789" [] in
  Er_node.add_tombstone n 1 3;
  Er_node.add_tombstone n 5 7;
  (* Live virtual positions: 0,3,4,7,8,9 at phys 0..5. *)
  check_int "phys 1" 3 (Er_node.virt_of_own_phys n 1);
  check_int "phys 2" 4 (Er_node.virt_of_own_phys n 2);
  check_int "phys 3" 7 (Er_node.virt_of_own_phys n 3);
  check_int "phys 5" 9 (Er_node.virt_of_own_phys n 5)

(* The innermost element strictly containing a splice point, by its
   slot (here its level): its depth plus one is the splice's level. *)
let test_container_slot () =
  (*         0123456789012345678 *)
  let text = "<a><b>xx</b>yy</a>" in
  let n = mk text [ (0, 18, 0, 0); (3, 12, 1, 1) ] in
  let check_slot what want x = Alcotest.(check (option int)) what want (Er_node.container_slot n x) in
  check_slot "outside" None 0;
  check_slot "inside a" (Some 0) 3;
  check_slot "inside b" (Some 1) 7;
  check_slot "between b and /a" (Some 0) 13;
  check_slot "at end" None 18

let test_container_slot_deep () =
  let n = mk "<a>x</a>" [ (0, 8, 5, 0) ] in
  Alcotest.(check (option int)) "the element's own slot" (Some 5) (Er_node.container_slot n 4)

let test_global_extent_with_child () =
  (* Segment at gp 100 with element [0,10) and a child segment of
     length 7 hanging at lp 4 (inside the element). *)
  let parent = mk "<a>bcdef</a>" [ (0, 12, 0, 0) ] in
  let child = mk ~sid:2 ~parent_path:parent.Er_node.path ~lp:4 "<c>zzz</c>" [] in
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + 10;
  let gstart, gstop = Er_node.global_extent_span ~gp:100 parent ~start:0 ~stop:12 in
  check_int "gstart" 100 gstart;
  check_int "gstop includes child" 122 gstop

let test_global_extent_child_at_boundary () =
  (* A child exactly at the element's start pushes it right; a child
     exactly at its stop does not extend it. *)
  let parent = mk "<a>b</a><d/>" [ (0, 8, 0, 0); (8, 12, 0, 1) ] in
  let child = mk ~sid:2 ~parent_path:parent.Er_node.path ~lp:0 "<c/>" [] in
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + 4;
  let a_start, a_stop = Er_node.global_extent_span ~gp:0 parent ~start:0 ~stop:8 in
  check_int "a pushed right" 4 a_start;
  check_int "a stop" 12 a_stop;
  (* The second element sits after both. *)
  let d_start, _ = Er_node.global_extent_span ~gp:0 parent ~start:8 ~stop:12 in
  check_int "d start" 12 d_start

let test_path_chain () =
  let a = mk ~sid:1 "<a/>" [] in
  let b = mk ~sid:2 ~parent_path:a.Er_node.path "<b/>" [] in
  let c = mk ~sid:3 ~parent_path:b.Er_node.path "<c/>" [] in
  check_bool "path" true (c.Er_node.path = [| 1; 2; 3 |])

let test_child_index_for_gp () =
  (* The parent sits at the map's root slot. *)
  let p = mk ~sid:0 "0123456789" [] in
  let map = Seg_map.create () in
  let add gp =
    let c =
      Er_node.make ~sid:(gp + 1) ~slot:(Seg_map.alloc map gp) ~gen:0 ~parent_path:p.Er_node.path
        ~lp:gp ~text:"<x/>" ~columns:Er_node.no_columns
    in
    Vec.insert_at p.Er_node.children (Seg_map.child_index map p gp) c
  in
  add 8;
  add 2;
  add 5;
  let kid_gps = List.map (Seg_map.gp map) (Vec.to_list p.Er_node.children) in
  check_bool "sorted" true (kid_gps = [ 2; 5; 8 ]);
  check_int "before all" 0 (Seg_map.child_index map p 1);
  check_int "after equal" 1 (Seg_map.child_index map p 2);
  check_int "past all" 3 (Seg_map.child_index map p 9)

let test_check_detects_bad_length () =
  let n = mk "<a/>" [] in
  n.Er_node.len <- 7;
  check_bool "detected" true
    (match Er_node.check n with exception Failure _ -> true | () -> false)

let test_check_detects_overlapping_elems () =
  (* Crossing extents [0,6) and [3,9) are not a tree. *)
  let n = mk "<a>bc</a>" [ (0, 6, 0, 0); (3, 9, 1, 1) ] in
  check_bool "detected" true
    (match Er_node.check n with exception Failure _ -> true | () -> false)

(* Segment "<a><b/><a/><b/></a>": tags a (tid 1) and b (tid 2)
   interleaved, one tag (tid 3) absent. *)
let columns_sample () =
  mk "<a><b/><a/><b/></a>" [ (0, 19, 0, 1); (3, 7, 1, 2); (7, 11, 1, 1); (11, 15, 1, 2) ]

let test_columns_order () =
  let n = columns_sample () in
  let a = Er_node.cols n ~tid:1 and b = Er_node.cols n ~tid:2 in
  Alcotest.(check (list int)) "a starts" [ 0; 7 ] (Array.to_list a.Er_node.starts);
  Alcotest.(check (list int)) "a stops" [ 19; 11 ] (Array.to_list a.Er_node.stops);
  Alcotest.(check (list int)) "a slots" [ 0; 1 ] (Array.to_list a.Er_node.pids);
  Alcotest.(check (list int)) "b starts" [ 3; 11 ] (Array.to_list b.Er_node.starts);
  let tids = ref [] in
  Er_node.iter_columns n (fun tid _ -> tids := tid :: !tids);
  Alcotest.(check (list int)) "tags ascending" [ 1; 2 ] (List.rev !tids)

let test_columns_isolation () =
  let n = columns_sample () in
  let other = mk ~sid:2 "<b/>" [ (0, 4, 0, 2) ] in
  check_int "absent tag is empty" 0 (Er_node.cols_length (Er_node.cols n ~tid:3));
  check_int "tid 0 is empty" 0 (Er_node.cols_length (Er_node.cols n ~tid:0));
  check_int "b stays in its segment" 2 (Er_node.cols_length (Er_node.cols n ~tid:2));
  check_int "other segment's b" 1 (Er_node.cols_length (Er_node.cols other ~tid:2));
  (* Removing elements swaps in new columns and leaves the old ones
     intact for whoever still holds them. *)
  let old_b = Er_node.cols n ~tid:2 in
  let dropped = ref [] in
  Er_node.remove_elements n ~vu:3 ~vv:7 (fun ~tid ~pid -> dropped := (tid, pid) :: !dropped);
  Alcotest.(check (list (pair int int))) "dropped b with its slot" [ (2, 1) ] !dropped;
  check_int "one b left" 1 (Er_node.cols_length (Er_node.cols n ~tid:2));
  check_int "old b columns untouched" 2 (Er_node.cols_length old_b);
  Er_node.remove_elements n ~vu:11 ~vv:15 (fun ~tid:_ ~pid:_ -> ());
  check_int "b gone" 0 (Er_node.cols_length (Er_node.cols n ~tid:2))

(* [columns_of] against a stable sort of the element indices by tag,
   grouped into runs: each tag's column holds its elements in document
   order. *)
let reference_columns ~tids ~starts ~stops ~pids =
  let order = List.stable_sort (fun a b -> compare tids.(a) tids.(b)) (List.init (Array.length tids) Fun.id) in
  let rec group = function
    | [] -> []
    | j :: _ as l ->
      let run, rest = List.partition (fun k -> tids.(k) = tids.(j)) l in
      let pick a = Array.of_list (List.map (Array.get a) run) in
      (tids.(j), (pick starts, pick stops, pick pids)) :: group rest
  in
  group order

let test_columns_counting_sort () =
  let rng = Random.State.make [| 30 |] in
  let agree what tids =
    let n = Array.length tids in
    let starts = Array.init n (fun j -> 3 * j) and stops = Array.init n (fun j -> (3 * j) + 1) in
    let pids = Array.init n (fun _ -> Random.State.int rng 1000) in
    let c = Er_node.columns_of ~tids ~starts ~stops ~pids in
    let got =
      List.combine (Array.to_list c.Er_node.tids)
        (List.map
           (fun (k : Er_node.cols) -> (k.starts, k.stops, k.pids))
           (Array.to_list c.Er_node.per_tag))
    in
    check_bool what true (got = reference_columns ~tids ~starts ~stops ~pids)
  in
  agree "empty" [||];
  agree "single tag" (Array.make 50 7);
  agree "one element" [| 1 lsl 40 |];
  for round = 1 to 60 do
    let n = Random.State.int rng 300 in
    (* Dense small ids, ids spanning more than one byte, and a few
       sparse ids up to max_int. *)
    let pool =
      match round mod 3 with
      | 0 -> Array.init 12 Fun.id
      | 1 -> Array.init 40 (fun _ -> Random.State.int rng 70_000)
      | _ -> [| 0; 255; 256; 1 lsl 40; (1 lsl 40) + 1; max_int |]
    in
    agree
      (Printf.sprintf "round %d" round)
      (Array.init n (fun _ -> pool.(Random.State.int rng (Array.length pool))))
  done;
  let one = [| 0 |] in
  Alcotest.check_raises "negative tag id" (Invalid_argument "Er_node.columns_of: negative tag id")
    (fun () -> ignore (Er_node.columns_of ~tids:[| 2; -1 |] ~starts:[| 0; 1 |] ~stops:[| 5; 2 |] ~pids:[| 0; 1 |]));
  Alcotest.check_raises "ragged arrays"
    (Invalid_argument "Er_node.columns_of: one start, stop and slot per element") (fun () ->
      ignore (Er_node.columns_of ~tids:one ~starts:one ~stops:[||] ~pids:one))

let suite =
  [
    Alcotest.test_case "columns: per-tag order" `Quick test_columns_order;
    Alcotest.test_case "columns: per-tag isolation" `Quick test_columns_isolation;
    Alcotest.test_case "columns: counting sort = stable sort" `Quick test_columns_counting_sort;
    Alcotest.test_case "make_root" `Quick test_make_root;
    Alcotest.test_case "tombstone accounting" `Quick test_tombstone_accounting;
    Alcotest.test_case "tombstone merge" `Quick test_tombstone_merge;
    Alcotest.test_case "tombstone adjacent merge" `Quick test_tombstone_adjacent_merge;
    Alcotest.test_case "tombstone invalid" `Quick test_tombstone_invalid;
    Alcotest.test_case "virt conversion" `Quick test_virt_conversion;
    Alcotest.test_case "virt conversion, two gaps" `Quick test_virt_conversion_two_gaps;
    Alcotest.test_case "container_slot" `Quick test_container_slot;
    Alcotest.test_case "container_slot, deep element" `Quick test_container_slot_deep;
    Alcotest.test_case "global extent with child" `Quick test_global_extent_with_child;
    Alcotest.test_case "global extent at boundaries" `Quick test_global_extent_child_at_boundary;
    Alcotest.test_case "path chain" `Quick test_path_chain;
    Alcotest.test_case "child_index_for_gp" `Quick test_child_index_for_gp;
    Alcotest.test_case "check: bad length" `Quick test_check_detects_bad_length;
    Alcotest.test_case "check: overlapping elements" `Quick test_check_detects_overlapping_elems;
  ]

(* Coordinate inverses under random tombstone sets: converting a live
   physical offset to virtual (either bias) and back must be the
   identity, and conversions must be monotone. *)
let prop_virt_phys_inverse =
  let gen = QCheck2.Gen.(list_size (int_range 0 6) (pair (int_bound 90) (int_range 1 8))) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"virt/phys conversions invert" ~count:150 gen (fun ranges ->
         let n = mk (String.make 100 'x') [] in
         List.iter
           (fun (a, w) ->
             let b = min 100 (a + w) in
             if a < b then Er_node.add_tombstone n a b)
           ranges;
         let live = Er_node.own_len n in
         let ok = ref true in
         for p = 0 to live do
           let v_after = Er_node.virt_of_own_phys n p in
           let v_before = Er_node.virt_of_own_phys_before n p in
           (* Both map back to the same physical position. *)
           let back v = v - Er_node.tombstoned_before n v in
           if back v_after <> p || back v_before <> p then ok := false;
           if v_before > v_after then ok := false;
           if p > 0 && Er_node.virt_of_own_phys n (p - 1) >= v_after then ok := false
         done;
         !ok))

let suite = suite @ [ prop_virt_phys_inverse ]

(* --- translation cursor vs the linear reference ------------------------ *)

let test_translator_boundaries () =
  (* Tombstone [2,5); children hooked at its start (len 3), inside it
     (len 1) and at its stop (len 4). *)
  let n = mk "0123456789" [] in
  Er_node.add_tombstone n 2 5;
  Lxu_props.Translate_props.hook n ~sid:2 ~lp:2 ~len:3;
  Lxu_props.Translate_props.hook n ~sid:3 ~lp:3 ~len:1;
  Lxu_props.Translate_props.hook n ~sid:4 ~lp:5 ~len:4;
  (* One cursor walks the offsets forward, then back down again. *)
  let c = Er_node.cursor (Er_node.translator n) ~gp:100 in
  let expect (x, start, stop) =
    check_int (Printf.sprintf "start %d" x) start (Er_node.cursor_start c x);
    check_int (Printf.sprintf "stop %d" x) stop (Er_node.cursor_stop c x);
    check_bool (Printf.sprintf "reference %d" x) true
      (Lxu_props.Translate_props.reference ~gp:100 n x = (start, stop))
  in
  let table = [ (0, 100, 100); (2, 105, 102); (3, 106, 105); (5, 110, 106); (10, 115, 115) ] in
  List.iter expect table;
  List.iter expect (List.rev table)

let suite =
  suite
  @ [
      Alcotest.test_case "translator at tombstone and child boundaries" `Quick
        test_translator_boundaries;
      QCheck_alcotest.to_alcotest (Lxu_props.Translate_props.cursor_sweep ~count:300);
      QCheck_alcotest.to_alcotest (Lxu_props.Translate_props.cursor_walk ~count:300);
      QCheck_alcotest.to_alcotest (Lxu_props.Translate_props.cached_translators ~count:300);
    ]
