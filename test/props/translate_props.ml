(* Properties of local->global translation and of merging its sorted
   runs, each against a plain reference: [Er_node.global_extent_span]
   for the cursor, [List.stable_sort] for [Run_merge.sort].  The
   default suite runs them at a few hundred cases; the slow tier at
   thousands. *)

open Lxu_seglog
open Lxu_util

let mk ~sid ~gp ~lp text = Er_node.make ~sid ~gp ~lp ~base_level:0 ~text ~elems:[]

let hook parent ~sid ~lp ~len =
  let child = mk ~sid ~gp:parent.Er_node.gp ~lp (String.make len 'c') in
  child.Er_node.parent <- Some parent;
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + len

let reference n x = Er_node.global_extent_span n ~start:x ~stop:x

(* Random segments: tombstones anywhere, children hooked at random
   offsets, at tombstone edges and inside tombstones. *)
let gen_segment =
  QCheck2.Gen.(
    quad (int_range 1 80)
      (list_size (int_range 0 6) (pair (int_bound 80) (int_range 1 10)))
      (list_size (int_range 0 8) (triple (int_bound 3) (int_bound 80) (int_range 1 15)))
      (int_bound 1000))

let build_segment (orig_len, ranges, kids, gp) =
  let n = mk ~sid:1 ~gp ~lp:0 (String.make orig_len 'x') in
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
  n

(* Whether one cursor translates every offset of [xs], in that order,
   as a start and as a stop exactly as the reference does. *)
let cursor_agrees n xs =
  let c = Er_node.cursor (Er_node.translator n) in
  List.for_all
    (fun x ->
      let gs, ge = reference n x in
      Er_node.cursor_start c x = gs && Er_node.cursor_stop c x = ge)
    xs

(* Every offset [0, orig_len] in order, so child lps equal to the
   offset and offsets on or inside tombstones are all exercised. *)
let cursor_sweep ~count =
  QCheck2.Test.make ~name:"translator = global_extent_span" ~count gen_segment
    (fun ((orig_len, _, _, _) as seg) ->
      cursor_agrees (build_segment seg) (List.init (orig_len + 1) Fun.id))

(* One cursor fed an arbitrary sequence of offsets in [0, orig_len]:
   the first at the far end, then repeats, descents, short steps and
   long jumps forward. *)
let cursor_walk ~count =
  QCheck2.Test.make ~name:"cursor over random offsets = global_extent_span" ~count
    QCheck2.Gen.(
      pair gen_segment (list_size (int_range 0 60) (pair (int_bound 4) (int_bound 1000))))
    (fun (((orig_len, _, _, _) as seg), moves) ->
      let x = ref orig_len in
      let step (kind, r) =
        (x :=
           match kind with
           | 0 -> !x
           | 1 -> r mod (!x + 1)
           | 2 -> min orig_len (!x + (r mod 4))
           | _ -> !x + (r mod (orig_len - !x + 1)));
        !x
      in
      cursor_agrees (build_segment seg) (orig_len :: List.map step moves))

(* Rows shaped like query output: a sorted list, its reversal (one run
   per row), sorted runs concatenated, or noise — over few distinct
   primaries, so equal primaries abound. *)
let gen_rows =
  QCheck2.Gen.(
    let row k = pair (int_bound k) (int_bound k) in
    let lists k = list_size (int_range 0 12) (list_size (int_range 0 10) (row k)) in
    int_range 0 4 >>= fun shape ->
    int_range 1 30 >>= fun k ->
    match shape with
    | 0 -> map (List.sort compare) (list_size (int_range 0 40) (row k))
    | 1 -> map (fun l -> List.rev (List.sort_uniq compare l)) (list_size (int_range 0 40) (row k))
    | 2 -> map (fun ls -> List.concat_map (List.sort compare) ls) (lists k)
    | _ -> list_size (int_range 0 40) (row k))

let run_merge ~count =
  QCheck2.Test.make ~name:"Run_merge.sort = List.stable_sort" ~count gen_rows (fun rows ->
      let p = Array.of_list (List.map fst rows) and s = Array.of_list (List.map snd rows) in
      let runs = Run_merge.runs p s in
      Run_merge.sort p s;
      let expected = List.stable_sort compare rows in
      Array.to_list (Array.map2 (fun a b -> (a, b)) p s) = expected
      && (runs = 1) = (rows <> [] && List.sort compare rows = rows)
      && (rows = [] || Run_merge.runs p s = 1))
