(* Shared workload helpers for the bench harness. *)

open Lxu_seglog

(* A balanced segmented document of roughly [n] elements: 100 segments
   of [n/100] flat elements each, appended as siblings. *)
let balanced_doc n =
  let per_segment = max 1 (n / 100) in
  let buf = Buffer.create (per_segment * 5) in
  for i = 0 to per_segment - 1 do
    Buffer.add_string buf (Printf.sprintf "<t%d/>" (i mod 8))
  done;
  let frag = Buffer.contents buf in
  List.init (min 100 n) (fun i -> (i * String.length frag, frag))

(* A valid mid-document insertion point: the gp of the segment closest
   below the middle. *)
let segment_boundary log =
  let target = Update_log.doc_length log / 2 in
  let best = ref 0 in
  Er_node.iter_subtree (Update_log.root log) (fun nd ->
      let gp = Seg_map.gp (Update_log.seg_map log) nd in
      if (not (Er_node.is_root nd)) && gp <= target && gp > !best then best := gp);
  !best
