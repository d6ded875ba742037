open Lxu_util
open Lxu_seglog
open Lxu_labeling

type stats = {
  mutable elements_read : int;
  mutable pairs : int;
}

let global_list_counted log ~tag stats =
  let reg = Update_log.registry log in
  match Tag_registry.find reg tag with
  | None -> [||]
  | Some tid ->
    let acc = Vec.create () in
    Array.iter
      (fun (entry : Tag_list.entry) ->
        let node = Update_log.node_of_sid log entry.Tag_list.sid in
        let c : Er_node.cols = Update_log.elements_cols log ~tid ~sid:entry.Tag_list.sid in
        let n = Er_node.cols_length c in
        (match stats with
        | Some s -> s.elements_read <- s.elements_read + n
        | None -> ());
        for i = 0 to n - 1 do
          let gstart, gstop =
            Er_node.global_extent_span node ~start:c.starts.(i) ~stop:c.stops.(i)
          in
          Vec.push acc (Interval.make ~start:gstart ~stop:gstop ~level:c.levels.(i))
        done)
      (Update_log.segments_for_tag log ~tag);
    let a = Vec.to_array acc in
    Array.sort Interval.compare_start a;
    a

let global_list log ~tag =
  Update_log.prepare_for_query log;
  global_list_counted log ~tag None

let global_cols log ~tag =
  let a = global_list log ~tag in
  let n = Array.length a in
  let starts = Array.make n 0 and stops = Array.make n 0 and levels = Array.make n 0 in
  Array.iteri
    (fun i (iv : Interval.t) ->
      starts.(i) <- iv.Interval.start;
      stops.(i) <- iv.Interval.stop;
      levels.(i) <- iv.Interval.level)
    a;
  { Er_node.starts; stops; levels }

let run ?axis log ~anc ~desc () =
  let stats = { elements_read = 0; pairs = 0 } in
  Update_log.prepare_for_query log;
  let a = global_list_counted log ~tag:anc (Some stats) in
  let d = global_list_counted log ~tag:desc (Some stats) in
  let pairs, jstats = Stack_tree_desc.join ?axis ~anc:a ~desc:d () in
  stats.pairs <- jstats.Stack_tree_desc.pairs;
  (pairs, stats)

let path_leaves log ~tags ~edges =
  let n = Array.length tags in
  if n = 0 || Array.length edges <> n then
    invalid_arg "Std_baseline.path_leaves: need one edge per tag";
  let streams = Array.map (fun tag -> global_list log ~tag) tags in
  if edges.(0) = Path_stack.Child then
    streams.(0) <-
      Array.of_seq
        (Seq.filter (fun (l : Interval.t) -> l.Interval.level = 0) (Array.to_seq streams.(0)));
  Path_stack.leaves ~streams ~edges:(Array.sub edges 1 (n - 1))
  |> List.map (fun (l : Interval.t) -> (l.Interval.start, l.Interval.stop))
  |> List.sort_uniq compare
