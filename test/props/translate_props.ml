(* Properties of local->global translation, each against a plain
   reference: [Er_node.global_extent_span] for the cursor,
   [Er_node.build_translator] for the translator cached on a node.
   The default suite runs them at a few hundred cases; the slow tier at
   thousands. *)

open Lxu_seglog
open Lxu_util

let mk ~sid ~parent_path ~lp text =
  Er_node.make ~sid ~slot:sid ~gen:0 ~parent_path ~lp ~text ~columns:Er_node.no_columns

let hook parent ~sid ~lp ~len =
  let child = mk ~sid ~parent_path:parent.Er_node.path ~lp (String.make len 'c') in
  Vec.push parent.Er_node.children child;
  parent.Er_node.len <- parent.Er_node.len + len

let reference ~gp n x = Er_node.global_extent_span ~gp n ~start:x ~stop:x

(* Random segments: tombstones anywhere, children hooked at random
   offsets, at tombstone edges and inside tombstones. *)
let gen_segment =
  QCheck2.Gen.(
    quad (int_range 1 80)
      (list_size (int_range 0 6) (pair (int_bound 80) (int_range 1 10)))
      (list_size (int_range 0 8) (triple (int_bound 3) (int_bound 80) (int_range 1 15)))
      (int_bound 1000))

let build_segment (orig_len, ranges, kids, _) =
  let n = mk ~sid:1 ~parent_path:[| 0 |] ~lp:0 (String.make orig_len 'x') in
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
   as a start and as a stop exactly as the reference does, with the
   segment at global position [gp]. *)
let cursor_agrees ~gp n xs =
  let c = Er_node.cursor (Er_node.translator n) ~gp in
  List.for_all
    (fun x ->
      let gs, ge = reference ~gp n x in
      Er_node.cursor_start c x = gs && Er_node.cursor_stop c x = ge)
    xs

(* Every offset [0, orig_len] in order, so child lps equal to the
   offset and offsets on or inside tombstones are all exercised. *)
let cursor_sweep ~count =
  QCheck2.Test.make ~name:"translator = global_extent_span" ~count gen_segment
    (fun ((orig_len, _, _, gp) as seg) ->
      cursor_agrees ~gp (build_segment seg) (List.init (orig_len + 1) Fun.id))

(* One cursor fed an arbitrary sequence of offsets in [0, orig_len]:
   the first at the far end, then repeats, descents, short steps and
   long jumps forward. *)
let cursor_walk ~count =
  QCheck2.Test.make ~name:"cursor over random offsets = global_extent_span" ~count
    QCheck2.Gen.(
      pair gen_segment (list_size (int_range 0 60) (pair (int_bound 4) (int_bound 1000))))
    (fun (((orig_len, _, _, gp) as seg), moves) ->
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
      cursor_agrees ~gp (build_segment seg) (orig_len :: List.map step moves))

(* Random edits on one log — inserts at tag boundaries, removes of
   whole elements — with freezes in between; after every step the
   translators of some nodes of the live log and of every snapshot are
   read (so cached).  At the end every node of every version must cache
   exactly the translator a fresh build gives, and every version must
   pass [Update_log.check]: a node changed in place after a reader
   cached its translator, or a node a snapshot shares changed under
   it, breaks one or the other. *)
let fragments = [| "<a/>"; "<b><a/></b>"; "<a>x<b/>y</a>"; "<c>zz</c>" |]

let cached_translators ~count =
  QCheck2.Test.make ~name:"cached translator = fresh build, after edits and freezes" ~count
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_bound 9) (int_bound 10_000)))
    (fun steps ->
      let log = Update_log.create () in
      ignore (Update_log.insert log ~gp:0 "<r></r>");
      let versions = ref [] in
      let warm r v =
        Er_node.iter_subtree (Update_log.root v) (fun n ->
            if (n.Er_node.sid + r) mod 3 <> 0 then ignore (Er_node.translator n))
      in
      List.iter
        (fun (kind, r) ->
          (match kind with
          | 0 | 1 | 2 | 3 ->
            let text = Update_log.materialize log in
            let at =
              List.filter
                (fun i -> i = 0 || text.[i - 1] = '>')
                (List.init (String.length text + 1) Fun.id)
            in
            ignore
              (Update_log.insert log
                 ~gp:(List.nth at (r mod List.length at))
                 fragments.(r mod Array.length fragments))
          | 4 | 5 -> (
            match Update_log.global_elements log ~tag:[| "a"; "b"; "c" |].(r mod 3) with
            | [] -> ()
            | els ->
              let start, stop, _ = List.nth els (r mod List.length els) in
              Update_log.remove log ~gp:start ~len:(stop - start))
          | 6 | 7 -> versions := Update_log.freeze log :: !versions
          | _ -> ());
          List.iter (warm r) (log :: !versions))
        steps;
      List.for_all
        (fun v ->
          Update_log.check v;
          let fresh = ref true in
          Er_node.iter_subtree (Update_log.root v) (fun n ->
              if Er_node.translator n <> Er_node.build_translator n then fresh := false);
          !fresh)
        (log :: !versions))
