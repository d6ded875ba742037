(* The quadratic from-scratch path synopsis, kept as the reference for
   [Update_log.synopsis_rebuilt]'s one-sweep rebuild (as [Std_ref]
   keeps the STD baseline): every segment rescans its parent's whole
   skeleton for the elements strictly containing its local position,
   in a pre-order walk that records each parent's context chain before
   its children need it. *)

open Lxu_seglog
module Vec = Lxu_util.Vec

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
          Vec.fold_left
            (fun acc (e : elem) ->
              if e.start < n.lp && e.stop > n.lp then e.tid :: acc else acc)
            [] parent.elems
        in
        let ctx =
          match own with
          | [] -> pctx
          | _ -> Array.append pctx (Array.of_list (List.rev own))
        in
        Hashtbl.add ctxs n.sid ctx;
        ignore (Path_synopsis.add_segment syn ~ctx_tids:ctx ~elems:n.elems)
      end);
  syn
