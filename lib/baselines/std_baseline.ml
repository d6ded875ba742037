open Lxu_util
open Lxu_seglog

type stats = {
  mutable elements_read : int;
  mutable pairs : int;
}

let global_list_counted log ~tag stats =
  let reg = Update_log.registry log in
  match Tag_registry.find reg tag with
  | None -> [||]
  | Some tid ->
    let depth = Path_synopsis.depth_table (Update_log.synopsis log) in
    let map = Update_log.seg_map log in
    let acc = Vec.create () in
    Array.iter
      (fun (entry : Tag_list.entry) ->
        let node = Update_log.node_of_sid log entry.Tag_list.sid in
        let c = Er_node.cols node ~tid in
        let n = Er_node.cols_length c in
        (match stats with
        | Some s -> s.elements_read <- s.elements_read + n
        | None -> ());
        let cursor = Seg_map.cursor map node in
        for i = 0 to n - 1 do
          Vec.push acc
            (Interval.make
               ~start:(Er_node.cursor_start cursor c.starts.(i))
               ~stop:(Er_node.cursor_stop cursor c.stops.(i))
               ~level:depth.(c.pids.(i)))
        done)
      (Update_log.segments_for_tag log ~tag);
    let a = Vec.to_array acc in
    Array.sort Interval.compare_start a;
    a

let global_list log ~tag =
  Update_log.prepare_for_query log;
  global_list_counted log ~tag None

let run ?axis log ~anc ~desc () =
  let stats = { elements_read = 0; pairs = 0 } in
  Update_log.prepare_for_query log;
  let a = global_list_counted log ~tag:anc (Some stats) in
  let d = global_list_counted log ~tag:desc (Some stats) in
  let pairs, jstats = Stack_tree_desc.join ?axis ~anc:a ~desc:d () in
  stats.pairs <- jstats.Stack_tree_desc.pairs;
  (pairs, stats)
