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

(* The document perfbench's xmark_read reads, as one edit schedule: the
   2,000-person XMark document (generator seed 42) chopped into 500
   balanced segments, then a segment of 16 [<watch/>]s inside every
   12th [<watches>] and one of 8 [<interest/>]s inside every 12th
   [<profile>] (229 in all), applied back to front so each lands at
   its offset in the chopped document. *)
let xmark_read_edits () =
  let persons = 2_000 in
  let text = Lxu_workload.Xmark.generate_text ~persons ~items:(persons * 3 / 5) ~seed:42 () in
  let extra_inside marker fragment =
    let m = String.length marker and k = ref 0 and points = ref [] in
    for i = 0 to String.length text - m do
      if String.sub text i m = marker then begin
        if !k mod 12 = 0 then points := (String.index_from text i '>' + 1, fragment) :: !points;
        incr k
      end
    done;
    !points
  in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  let extra =
    extra_inside "<watches>" (rep 16 "<watch open_auction=\"oa0\"/>")
    @ extra_inside "<profile " (rep 8 "<interest category=\"extra\"/>")
  in
  Lxu_workload.Chopper.chop ~text ~segments:500 Lxu_workload.Chopper.Balanced
  @ List.sort (fun a b -> compare b a) extra
