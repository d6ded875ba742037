(* Direct tests of the ER-node coordinate machinery: tombstones,
   virtual/physical conversion, depth computation and global extents.
   (The update-log suite exercises these end-to-end; here the edge
   cases get pinned down in isolation.) *)

open Lxu_seglog
open Lxu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(sid = 1) ?(gp = 0) ?(lp = 0) ?(base_level = 0) text elems =
  Er_node.make ~sid ~gp ~lp ~base_level ~text
    ~elems:(List.map (fun (start, stop, level, tid) -> { Er_node.start; stop; level; tid }) elems)

let test_make_root () =
  let r = Er_node.make_root () in
  check_bool "is_root" true (Er_node.is_root r);
  check_int "gp" 0 r.Er_node.gp;
  check_int "len" 0 r.Er_node.len;
  check_int "own_len" 0 (Er_node.own_len r);
  check_bool "path" true (Er_node.path r = [| 0 |])

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

let test_depth_at () =
  (*         0123456789012345678 *)
  let text = "<a><b>xx</b>yy</a>" in
  let n = mk text [ (0, 18, 0, 0); (3, 12, 1, 1) ] in
  check_int "outside" 0 (Er_node.depth_at n 0);
  check_int "inside a" 1 (Er_node.depth_at n 3);
  check_int "inside b" 2 (Er_node.depth_at n 7);
  check_int "between b and /a" 1 (Er_node.depth_at n 13);
  check_int "at end" 0 (Er_node.depth_at n 18)

let test_depth_at_with_base () =
  let n = mk ~base_level:5 "<a>x</a>" [ (0, 8, 5, 0) ] in
  check_int "base plus nesting" 6 (Er_node.depth_at n 4)

let test_global_extent_with_child () =
  (* Segment at gp 100 with element [0,10) and a child segment of
     length 7 hanging at lp 4 (inside the element). *)
  let parent = mk ~gp:100 "<a>bcdef</a>" [ (0, 12, 0, 0) ] in
  let child = mk ~sid:2 ~gp:104 ~lp:4 "<c>zzz</c>" [] in
  child.Er_node.parent <- Some parent;
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + 10;
  let gstart, gstop = Er_node.global_extent parent { Er_node.start = 0; stop = 12; level = 0; tid = 0 } in
  check_int "gstart" 100 gstart;
  check_int "gstop includes child" 122 gstop

let test_global_extent_child_at_boundary () =
  (* A child exactly at the element's start pushes it right; a child
     exactly at its stop does not extend it. *)
  let parent = mk ~gp:0 "<a>b</a><d/>" [ (0, 8, 0, 0); (8, 12, 0, 1) ] in
  let child = mk ~sid:2 ~gp:0 ~lp:0 "<c/>" [] in
  child.Er_node.parent <- Some parent;
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + 4;
  let a_start, a_stop = Er_node.global_extent parent { Er_node.start = 0; stop = 8; level = 0; tid = 0 } in
  check_int "a pushed right" 4 a_start;
  check_int "a stop" 12 a_stop;
  (* The second element sits after both. *)
  let d_start, _ = Er_node.global_extent parent { Er_node.start = 8; stop = 12; level = 0; tid = 1 } in
  check_int "d start" 12 d_start

let test_path_chain () =
  let a = mk ~sid:1 "<a/>" [] in
  let b = mk ~sid:2 "<b/>" [] in
  let c = mk ~sid:3 "<c/>" [] in
  b.Er_node.parent <- Some a;
  c.Er_node.parent <- Some b;
  check_bool "path" true (Er_node.path c = [| 1; 2; 3 |])

let test_child_index_for_gp () =
  let p = mk "0123456789" [] in
  let add gp =
    let c = mk ~sid:gp ~gp ~lp:gp "<x/>" [] in
    c.Er_node.parent <- Some p;
    Vec.insert_at p.Er_node.children (Er_node.child_index_for_gp p gp) c
  in
  add 8;
  add 2;
  add 5;
  let gps = List.map (fun (c : Er_node.t) -> c.Er_node.gp) (Vec.to_list p.Er_node.children) in
  check_bool "sorted" true (gps = [ 2; 5; 8 ]);
  check_int "before all" 0 (Er_node.child_index_for_gp p 1);
  check_int "after equal" 1 (Er_node.child_index_for_gp p 2);
  check_int "past all" 3 (Er_node.child_index_for_gp p 9)

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

let suite =
  [
    Alcotest.test_case "make_root" `Quick test_make_root;
    Alcotest.test_case "tombstone accounting" `Quick test_tombstone_accounting;
    Alcotest.test_case "tombstone merge" `Quick test_tombstone_merge;
    Alcotest.test_case "tombstone adjacent merge" `Quick test_tombstone_adjacent_merge;
    Alcotest.test_case "tombstone invalid" `Quick test_tombstone_invalid;
    Alcotest.test_case "virt conversion" `Quick test_virt_conversion;
    Alcotest.test_case "virt conversion, two gaps" `Quick test_virt_conversion_two_gaps;
    Alcotest.test_case "depth_at" `Quick test_depth_at;
    Alcotest.test_case "depth_at with base" `Quick test_depth_at_with_base;
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

(* --- translator vs the linear reference -------------------------------- *)

let hook parent ~sid ~lp ~len =
  let child = mk ~sid ~gp:parent.Er_node.gp ~lp (String.make len 'c') [] in
  child.Er_node.parent <- Some parent;
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + len

let reference n x = Er_node.global_extent_span n ~start:x ~stop:x

let test_translator_boundaries () =
  (* Tombstone [2,5); children hooked at its start (len 3), inside it
     (len 1) and at its stop (len 4). *)
  let n = mk ~gp:100 "0123456789" [] in
  Er_node.add_tombstone n 2 5;
  hook n ~sid:2 ~lp:2 ~len:3;
  hook n ~sid:3 ~lp:3 ~len:1;
  hook n ~sid:4 ~lp:5 ~len:4;
  let tr = Er_node.translator n in
  let expect x ~start ~stop =
    check_int (Printf.sprintf "start %d" x) start (Er_node.global_start tr x);
    check_int (Printf.sprintf "stop %d" x) stop (Er_node.global_stop tr x);
    check_bool (Printf.sprintf "reference %d" x) true (reference n x = (start, stop))
  in
  expect 0 ~start:100 ~stop:100;
  expect 2 ~start:105 ~stop:102;
  expect 3 ~start:106 ~stop:105;
  expect 5 ~start:110 ~stop:106;
  expect 10 ~start:115 ~stop:115

(* Random segments: tombstones anywhere, children hooked at random
   offsets, at tombstone edges and inside tombstones.  Every offset
   [0, orig_len] is translated as a start and as a stop, so child lps
   equal to the offset and offsets on or inside tombstones are all
   exercised. *)
let prop_translator_matches_reference =
  let gen =
    QCheck2.Gen.(
      quad (int_range 1 80)
        (list_size (int_range 0 6) (pair (int_bound 80) (int_range 1 10)))
        (list_size (int_range 0 8) (triple (int_bound 3) (int_bound 80) (int_range 1 15)))
        (int_bound 1000))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"translator = global_extent_span" ~count:300 gen
       (fun (orig_len, ranges, kids, gp) ->
         let n = mk ~gp (String.make orig_len 'x') [] in
         List.iter
           (fun (a, w) ->
             let b = min orig_len (a + w) in
             if a < b then Er_node.add_tombstone n a b)
           ranges;
         let tombs = Vec.to_array n.Er_node.tombstones in
         let lp_of (mode, r, _) =
           let nt = Array.length tombs in
           if mode = 0 || nt = 0 then r mod (orig_len + 1)
           else begin
             let a, b = tombs.(r mod nt) in
             match mode with 1 -> a | 2 -> b | _ -> (a + b) / 2
           end
         in
         List.map (fun k -> (lp_of k, k)) kids
         |> List.stable_sort (fun (x, _) (y, _) -> Int.compare x y)
         |> List.iteri (fun i (lp, (_, _, len)) -> hook n ~sid:(i + 2) ~lp ~len);
         let tr = Er_node.translator n in
         let ok = ref true in
         for x = 0 to orig_len do
           let gs, ge = reference n x in
           if Er_node.global_start tr x <> gs || Er_node.global_stop tr x <> ge then ok := false
         done;
         !ok))

let suite =
  suite
  @ [
      Alcotest.test_case "translator at tombstone and child boundaries" `Quick
        test_translator_boundaries;
      prop_translator_matches_reference;
    ]
