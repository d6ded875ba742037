(* The quadratic from-scratch path synopsis, kept as the reference for
   [Update_log.synopsis_rebuilt]'s one-sweep rebuild (as [Std_ref]
   keeps the STD baseline): every segment rescans all of its parent's
   columns for the elements strictly containing its local position,
   in a pre-order walk that records each parent's context chain before
   its children need it.  Document order comes from sorting the
   column entries by start, not from [Er_node.iter_elements]. *)

open Lxu_seglog

(* A segment's elements as [(start, stop, tid)], ascending start. *)
let elements (n : Er_node.t) =
  let acc = ref [] in
  Er_node.iter_columns n (fun tid c ->
      for i = 0 to Er_node.cols_length c - 1 do
        acc := (c.Er_node.starts.(i), c.Er_node.stops.(i), tid) :: !acc
      done);
  List.sort compare !acc

let synopsis_of_tree (root : Er_node.t) =
  let open Er_node in
  let syn = Path_synopsis.create () in
  let ctxs = Hashtbl.create 64 and nodes = Hashtbl.create 64 in
  Hashtbl.add ctxs root.sid [||];
  Er_node.iter_subtree root (fun n ->
      Hashtbl.add nodes n.sid n;
      if not (is_root n) then begin
        let parent = Hashtbl.find nodes n.path.(Array.length n.path - 2) in
        let pctx = try Hashtbl.find ctxs parent.sid with Not_found -> [||] in
        let own =
          List.filter_map
            (fun (start, stop, tid) -> if start < n.lp && stop > n.lp then Some tid else None)
            (elements parent)
        in
        let ctx = Array.append pctx (Array.of_list own) in
        Hashtbl.add ctxs n.sid ctx;
        let els = Array.of_list (elements n) in
        ignore
          (Path_synopsis.add_segment syn ~ctx_tids:ctx
             ~tids:(Array.map (fun (_, _, tid) -> tid) els)
             ~starts:(Array.map (fun (start, _, _) -> start) els)
             ~stops:(Array.map (fun (_, stop, _) -> stop) els))
      end);
  syn
